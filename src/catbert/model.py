"""CatBERT network: embeddings, a mixed plan of transformer and adapter
blocks, and a context-fusing sigmoid classifier.

The compressed model keeps a subset of a donor's transformer blocks and fills
the removed positions with full-width residual adapters (dense d→d, ReLU,
dense d→d, plus the skip connection). The classifier reads the last block's
[CLS] hidden state and the ``CONTEXT_DIM`` header-context features (none
when ``context_dim`` is 0), and applies dense (width d, over both) → ReLU →
dense → sigmoid. The forward is padding-free: every op runs on the packed
(N, d) array of the batch's real tokens, each row attends over its own
tokens (``tensor.attention``), and from the last transformer on only the
[CLS] rows are computed (``forward_probs``). ``surgery_from_donor`` builds
the compressed model from a donor checkpoint; ``set_trainable`` applies
freeze masks for partial fine-tuning.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import tensor as T
from .mail import CONTEXT_DIM
from .tensor import Parameter, Tensor
from .tokenizer import DEFAULT_MAX_LEN, MIN_MAX_LEN

TRANSFORMER = "transformer"
ADAPTER = "adapter"
_PLAN_ALIASES = {"t": TRANSFORMER, "transformer": TRANSFORMER,
                 "a": ADAPTER, "adapter": ADAPTER}

class ConfigError(ValueError):
    pass


@dataclass
class ModelConfig:
    vocab_size: int = 30522
    hidden: int = 768
    ffn_dim: int = 3072
    heads: int = 12
    max_positions: int = 512
    block_plan: tuple[str, ...] = (TRANSFORMER, ADAPTER) * 3
    context_dim: int = CONTEXT_DIM  # or 0: no header context
    seed: int = 0

    def __post_init__(self):
        plan = self.block_plan
        if not isinstance(plan, (list, tuple)) or not all(isinstance(b, str) for b in plan):
            raise ConfigError(f"block_plan must be a list of block kinds, got {plan!r}")
        try:
            self.block_plan = tuple(_PLAN_ALIASES[b.lower()] for b in plan)
        except KeyError as e:
            raise ConfigError(f"unknown block kind {e.args[0]!r}") from None
        if not self.block_plan:
            raise ConfigError("block plan must be non-empty")
        if TRANSFORMER not in self.block_plan:
            raise ConfigError("block plan needs a transformer: without one the [CLS] row "
                              "reads no other token")
        for key in ("vocab_size", "hidden", "ffn_dim", "heads", "max_positions", "seed"):
            v, least = getattr(self, key), 0 if key == "seed" else 1
            if type(v) is not int or v < least:
                raise ConfigError(f"{key} must be an int >= {least}, got {v!r}")
        if self.hidden % self.heads != 0:
            raise ConfigError(f"hidden={self.hidden} not divisible by heads={self.heads}")
        if type(self.context_dim) is not int or self.context_dim not in (0, CONTEXT_DIM):
            raise ConfigError(f"context_dim must be 0 or {CONTEXT_DIM}, got {self.context_dim}")

    def to_dict(self) -> dict:
        return {**asdict(self), "block_plan": list(self.block_plan)}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Build from a config or checkpoint dict. Dicts written before
        ``cls_from`` and ``classifier_hidden`` were retired still load when
        they hold the one value the model now has."""
        hidden = config_keys(d, "model").get("hidden", cls.__dataclass_fields__["hidden"].default)
        retired = {key: (only, f"the model supports only {only!r}")
                   for key, only in (("cls_from", "last_block"), ("classifier_hidden", hidden))}
        return cls(**config_keys(d, "model", cls.__dataclass_fields__, retired))


def config_keys(d: dict, section: str, known=None, retired: dict | None = None) -> dict:
    """``d`` without its retired keys: the one rule for reading config dicts.
    ``retired`` maps each key that older configs may hold to (the one value
    it may still have, the reason shown for any other). ConfigError on a
    ``section`` that is not a dict (a JSON object), a key that is neither
    known nor retired (any key is known when ``known`` is None), or a
    retired key set otherwise."""
    if type(d) is not dict:
        raise ConfigError(f"{section} must be a JSON object, got {type(d).__name__}")
    retired = retired or {}
    unknown = set(d) - set(d if known is None else known) - set(retired)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    for key, (only, reason) in retired.items():
        if d.get(key, only) != only:
            raise ConfigError(f"{key}={d[key]!r} is retired; {reason}")
    return {k: v for k, v in d.items() if k not in retired}


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
    """Parameter counts per section of the network, summed over
    ``param_shapes``; each per-block count is that of block 1 in the plan
    ``(T, kind)``."""
    def size(cfg: ModelConfig, prefix: str = "") -> int:
        return sum(math.prod(shape) for name, shape in param_shapes(cfg).items()
                   if name.startswith(prefix))

    per_block = {kind: size(replace(config, block_plan=(TRANSFORMER, kind)), "blocks.1.")
                 for kind in (TRANSFORMER, ADAPTER)}
    return ParamReport(embedding=size(config, "embeddings."),
                       per_transformer=per_block[TRANSFORMER], per_adapter=per_block[ADAPTER],
                       classifier=size(config, "classifier."), total=size(config))


def row_width(config: ModelConfig) -> int:
    """The width in tokens of every row the model trains on or scores: the
    tokenizer's default, capped at the model's positions. ConfigError when
    that leaves no room for [CLS], one token and [SEP]."""
    width = min(DEFAULT_MAX_LEN, config.max_positions)
    if width < MIN_MAX_LEN:
        raise ConfigError(f"max_positions {config.max_positions} allows rows of {width} tokens; "
                          f"max_len must be at least {MIN_MAX_LEN} ([CLS], one token, [SEP])")
    return width


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
    ``surgery_from_donor`` or ``load_checkpoint``, share
    memory, so a step never writes through to another holder. A loaded
    model's parameters are views of a private mapping of its blob: the
    first write to a page copies that page, and the file never changes."""

    def __init__(self, config: ModelConfig, params: dict[str, Parameter],
                 provenance: dict[str, str] | None = None):
        self.config = config
        self.params = params
        self.provenance = provenance or {name: "fresh" for name in params}

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())


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


def _pack(mask: np.ndarray) -> tuple[tuple, tuple[np.ndarray, np.ndarray]]:
    """Where the real tokens of a batch sit: each token's (row, column) in
    the mask, and each row's segment (starts, lengths) of the packed (N, d)
    array, which holds the N attended positions in row-major order, so a
    segment starts at its row's [CLS] token."""
    attend = mask.astype(bool)
    no_cls = np.flatnonzero(~attend[:, 0])
    if no_cls.size:
        raise ValueError(f"mask row {int(no_cls[0])} does not attend to column 0, "
                         "where its [CLS] token must be")
    lengths = attend.sum(axis=1)
    return np.nonzero(attend), (np.cumsum(lengths) - lengths, lengths)


def _attention(x: Tensor, p: dict, prefix: str, heads: int, segments: tuple) -> Tensor:
    """Self-attention of the packed rows ``x`` (N, d), each row over its own tokens."""
    q, k, v = (T.matmul(x, p[f"{prefix}.attn.{n}.w"], bias=p[f"{prefix}.attn.{n}.b"])
               for n in "qkv")
    scale = 1.0 / math.sqrt(x.data.shape[-1] // heads)
    mixed = T.attention(q, k, v, segments, segments, heads, scale)
    return T.matmul(mixed, p[f"{prefix}.attn.o.w"], bias=p[f"{prefix}.attn.o.b"])


def _cls_attention(xq: Tensor, x: Tensor, p: dict, prefix: str, heads: int,
                   segments: tuple) -> Tensor:
    """Attention of the B [CLS] rows ``xq`` (B, d) over the packed rows
    ``x`` (N, d), with no key or value projection of ``x``. Per head, with
    row-vector weights ``k_j = x_j W_k + b_k`` and ``v_j = x_j W_v + b_v``:

        q·k_j = x_j·(W_k q) + q·b_k
        Σ_j w_j v_j = (Σ_j w_j x_j) W_v + b_v      (the weights sum to 1)

    ``q·b_k`` is the same for every key of a row, so the softmax drops it,
    and the scores need only the folded query ``u = W_k q`` (B·d² work),
    scored against the rows themselves; the output is one weighted sum of
    ``x`` per head, against 2·N·d² for projecting every key and value. The
    scores and weighted sums are one single-head ``attention`` whose queries
    are each row's h folded queries. ``attn.k.b`` gets its true gradient,
    exactly zero, through a zero term of the value bias."""
    B, d = xq.data.shape
    dh = d // heads
    q = T.matmul(xq, p[f"{prefix}.attn.q.w"], bias=p[f"{prefix}.attn.q.b"])
    q = T.transpose(T.reshape(q, (B, heads, dh)), (1, 0, 2))  # (h, B, dh)
    wk = T.transpose(T.reshape(p[f"{prefix}.attn.k.w"], (d, heads, dh)), (1, 2, 0))  # (h, dh, d)
    # row i's h folded queries are rows i·h on of u
    u = T.reshape(T.transpose(T.matmul(q, wk), (1, 0, 2)), (B * heads, d))
    z = T.attention(u, x, x, (np.arange(B) * heads, np.full(B, heads)), segments, 1,
                    1.0 / math.sqrt(dh))
    wv = T.transpose(T.reshape(p[f"{prefix}.attn.v.w"], (d, heads, dh)), (1, 0, 2))  # (h, d, dh)
    mixed = T.matmul(T.transpose(T.reshape(z, (B, heads, d)), (1, 0, 2)), wv)  # (h, B, dh)
    # b_v + 0·b_k adds a signed zero: the forward is unchanged, and Adam leaves b_k as it is
    vb = T.add(p[f"{prefix}.attn.v.b"], T.mul(p[f"{prefix}.attn.k.b"], 0.0))
    mixed = T.add(T.reshape(T.transpose(mixed, (1, 0, 2)), (B, d)), vb)
    return T.matmul(mixed, p[f"{prefix}.attn.o.w"], bias=p[f"{prefix}.attn.o.b"])


def _transformer_block(x: Tensor, p: dict, prefix: str, heads: int,
                       segments: tuple, cls_only: bool) -> Tensor:
    """Transformer output on the packed rows ``x`` (N, d), or with
    ``cls_only`` on the B [CLS] rows alone (B, d), which still attend over
    their rows' tokens in ``x``. Every sublayer but attention is row-wise, so the
    [CLS] rows come out exactly as in the full output."""
    if cls_only:
        xq = T.take_rows(x, segments[0])
        attn = _cls_attention(xq, x, p, prefix, heads, segments)
    else:
        xq = x
        attn = _attention(x, p, prefix, heads, segments)
    # post-norm residual wiring: LayerNorm(x + sublayer(x)). Without a tape,
    # each sublayer's output is freed once read, before the next allocates.
    x = T.layer_norm(T.add(xq, attn), p[f"{prefix}.attn.ln.gain"], p[f"{prefix}.attn.ln.bias"])
    del xq, attn
    h = T.matmul(x, p[f"{prefix}.ffn.w1"], bias=p[f"{prefix}.ffn.b1"], act="gelu")  # (N, ffn_dim)
    ffn = T.matmul(h, p[f"{prefix}.ffn.w2"], bias=p[f"{prefix}.ffn.b2"])
    del h
    return T.layer_norm(T.add(x, ffn), p[f"{prefix}.ffn.ln.gain"], p[f"{prefix}.ffn.ln.bias"])


def _adapter_block(x: Tensor, p: dict, prefix: str) -> Tensor:
    h = T.matmul(x, p[f"{prefix}.dense1.w"], bias=p[f"{prefix}.dense1.b"], act="relu")
    return T.add(x, T.matmul(h, p[f"{prefix}.dense2.w"], bias=p[f"{prefix}.dense2.b"]))


def _block(x: Tensor, model: CatBertModel, i: int, segments: tuple, cls_only: bool) -> Tensor:
    prefix = f"blocks.{i}"
    if model.config.block_plan[i] == TRANSFORMER:
        return _transformer_block(x, model.params, prefix, model.config.heads, segments, cls_only)
    return _adapter_block(x, model.params, prefix)


GROUP_TOKENS = 512  # packed tokens per group of rows below the [CLS] stage, without a tape


def _row_groups(lengths: np.ndarray) -> list[tuple[int, int]]:
    """Consecutive row ranges (lo, hi) of at most ``GROUP_TOKENS`` tokens
    each, a longer row being a range of its own. No range is a single token
    unless the whole batch is: its GEMMs would run on one row, as GEMVs
    that round otherwise, so a lone one-token row joins its neighbour."""
    bounds, total = [0], 0
    for i, n in enumerate(lengths.tolist()):
        if total > 1 and total + n > GROUP_TOKENS:
            bounds.append(i)
            total = 0
        total += n
    if total == 1 and len(bounds) > 1:
        bounds.pop()
    return list(zip(bounds, bounds[1:] + [len(lengths)]))


def forward_probs(model: CatBertModel, ids: np.ndarray, mask: np.ndarray,
                  ctx: np.ndarray | None, return_hidden: bool = False):
    """Batched forward pass. ``ids``/``mask`` are (B, W) arrays, ``ctx`` is
    (B, context_dim) and ignored (may be None) when context_dim is 0.
    Returns a (B,) Tensor of probabilities; with ``return_hidden`` also the
    per-block hidden states.

    ``ctx`` is checked with ``ids`` and ``mask``, before any work. Every
    mask row must attend to column 0, its [CLS] token (ValueError
    otherwise), and no attended column may reach ``max_positions``. Only
    the N attended positions are computed, as one packed (N, d) array, and
    each row's tokens attend over that row's tokens alone (``_pack``,
    ``tensor.attention``): there is no padded grid, no mask, and ids at
    masked positions are never read.

    The classifier reads only the [CLS] row, so the last transformer
    queries the [CLS] rows alone and every block after it runs on those
    rows. That transformer forms no keys or values (``_cls_attention``), so
    it costs O(B·d² + N·d·heads) rather than O(N·d²). The hidden states are
    the packed (N, d) rows before the last transformer and the (B, 1, d)
    [CLS] rows from it on; ``hiddens[-1][:, 0]`` is the state the
    classifier reads.

    Each dense layer is one ``matmul`` that adds its bias and applies its
    ReLU or GELU, with the float operations of the unfused ops, so
    probabilities and gradients are bit-identical to theirs. The fusion
    layer is ``h @ W[:d]``, then each context feature times its row of
    ``W`` added in order, then the bias and the ReLU: no product contracts
    over d + context_dim (or d + 1), widths whose GEMMs round differently
    with the BLAS thread count. Ops record
    onto the active tape, so this same path serves training. Without a tape
    each op writes over the buffer it allocated, a sublayer's output is
    freed once read, and attention holds one row's scores at a time. The
    embeddings and the blocks below the last transformer, all row-wise or
    within one row, then run on consecutive groups of whole rows
    (``_row_groups``), each written into the one (N, d) array the [CLS]
    stage reads. Every GEMM keeps two or more rows, so the rows come out
    as from one group. The peak is one group's buffers (at most
    ``GROUP_TOKENS`` rows of the FFN's ffn_dim) plus the (N, d) arrays of
    the [CLS] stage. With a tape, or ``return_hidden``, the whole batch is
    one group.
    """
    cfg = model.config
    p = model.params
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2:
        raise ValueError(f"ids must be (B, W), got shape {ids.shape}")
    mask = np.asarray(mask)
    if mask.shape != ids.shape:
        raise ValueError(f"mask shape {mask.shape} does not match ids {ids.shape}")
    B = len(mask)
    if cfg.context_dim:
        if ctx is None:
            raise ValueError("model takes context features but ctx is None")
        ctx = np.asarray(ctx, dtype=p["embeddings.token"].data.dtype)
        if ctx.shape != (B, cfg.context_dim):
            raise ValueError(f"ctx shape {ctx.shape} != {(B, cfg.context_dim)}")
    coords, segments = _pack(mask)
    L = coords[1].max(initial=-1) + 1
    if L > cfg.max_positions:
        raise ValueError(f"sequence length {L} exceeds max positions {cfg.max_positions}")

    last_t = max(i for i, k in enumerate(cfg.block_plan) if k == TRANSFORMER)
    tokens, positions = ids[coords], coords[1]
    offsets = np.append(segments[0], len(tokens))  # row r's tokens: offsets[r]:offsets[r + 1]
    # a tape, like return_hidden, keeps every activation, and per-group
    # weight gradients would sum in another order
    keep_all = return_hidden or T._active_tape() is not None
    groups = [(0, B)] if keep_all else _row_groups(segments[1])
    packed = (np.empty((len(tokens), cfg.hidden), p["embeddings.token"].data.dtype)
              if len(groups) > 1 else None)
    hiddens = []
    for lo, hi in groups:
        t0, t1 = offsets[lo], offsets[hi]
        h = T.layer_norm(T.add(T.embedding_lookup(p["embeddings.token"], tokens[t0:t1]),
                               T.embedding_lookup(p["embeddings.position"], positions[t0:t1])),
                         p["embeddings.ln.gain"], p["embeddings.ln.bias"])
        rows = (segments[0][lo:hi] - t0, segments[1][lo:hi])
        for i in range(last_t):  # on the packed rows
            h = _block(h, model, i, rows, cls_only=False)
            if return_hidden:
                hiddens.append(h)
        if packed is not None:
            packed[t0:t1] = h.data
    if packed is not None:
        h = Tensor._wrap(packed)

    for i in range(last_t, len(cfg.block_plan)):
        h = _block(h, model, i, segments, cls_only=i == last_t)
        if return_hidden:
            hiddens.append(T.reshape(h, (B, 1, cfg.hidden)))

    w = p["classifier.fusion.w"]  # h holds the [CLS] rows
    fused = T.matmul(h, T.take_rows(w, slice(0, cfg.hidden)))
    if cfg.context_dim:
        w_ctx = T.take_rows(w, slice(cfg.hidden, None))
        for j in range(cfg.context_dim):  # one multiply-add per feature, in order
            fused = T.add(fused, T.mul(ctx[:, j:j + 1], T.take_rows(w_ctx, slice(j, j + 1))))
    fused = T.relu(T.add(fused, p["classifier.fusion.b"]))
    logit = T.matmul(fused, p["classifier.out.w"], bias=p["classifier.out.b"])
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
