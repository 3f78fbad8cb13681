import math
import os
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catbert import tensor as T
from catbert.mail import EmailRecord
from catbert.model import ModelConfig, forward_probs, freeze_preset, init_random, set_trainable
from catbert.pipeline import EncodedDataset, encode_records, score_dataset
from catbert.synthetic import make_corpus, synthetic_vocab
from catbert.tensor import Parameter, Tape, backward
from catbert.tokenizer import Vocabulary
from catbert.train import (
    TrainConfig,
    TrainingError,
    balanced_batches,
    bce_loss,
    effective_weights,
    split_by_time,
    train,
)

# ---------------------------------------------------------------- bce_loss


def _bce(probs, labels, weights):
    return bce_loss(T.Tensor(np.asarray(probs, dtype=np.float32)),
                    np.asarray(labels), np.asarray(weights))


def test_bce_confident_correct_is_near_zero():
    loss = _bce([1.0 - 1e-7], [1.0], [1.0])
    assert float(loss.data) < 1e-6


def test_bce_half_prob_is_log_two():
    loss = _bce([0.5], [1.0], [1.0])
    assert float(loss.data) == pytest.approx(math.log(2.0), rel=1e-6)


def test_bce_weight_scales_per_sample_loss():
    loss = _bce([0.5], [0.0], [100.0])
    assert float(loss.data) == pytest.approx(100.0 * math.log(2.0), rel=1e-6)


def test_bce_matches_float64_oracle():
    rng = np.random.default_rng(7)
    f = rng.uniform(0.01, 0.99, size=50)
    y = rng.integers(0, 2, size=50).astype(np.float64)
    w = rng.uniform(0.5, 3.0, size=50)
    expected = np.mean(w * -(y * np.log(f) + (1 - y) * np.log(1 - f)))
    got = float(_bce(f, y, w).data)
    assert got == pytest.approx(expected, rel=1e-5)


def test_bce_doubling_weights_doubles_loss_exactly():
    # scaling by a power of two only bumps exponents, so equality is exact
    rng = np.random.default_rng(3)
    f = rng.uniform(0.1, 0.9, size=32)
    y = rng.integers(0, 2, size=32)
    w = rng.uniform(0.5, 2.0, size=32)
    assert float(_bce(f, y, 2.0 * w).data) == 2.0 * float(_bce(f, y, w).data)


def test_bce_tripling_weights_triples_loss_approximately():
    rng = np.random.default_rng(4)
    f = rng.uniform(0.1, 0.9, size=32)
    y = rng.integers(0, 2, size=32)
    w = rng.uniform(0.5, 2.0, size=32)
    assert float(_bce(f, y, 3.0 * w).data) == pytest.approx(
        3.0 * float(_bce(f, y, w).data), rel=1e-6)


def test_bce_gradient_through_sigmoid_is_weighted_residual():
    # d/dz of w * bce(sigmoid(z), y) collapses to w * (f - y) / n
    z = Parameter("z", np.array([-1.5, 0.0, 0.4, 2.0], dtype=np.float32))
    y = np.array([1.0, 0.0, 1.0, 0.0])
    w = np.array([1.0, 2.0, 0.5, 3.0])
    with Tape() as tape:
        f = T.sigmoid(z)
        loss = bce_loss(f, y, w)
    backward(tape, loss)
    expected = w * (1.0 / (1.0 + np.exp(-z.data.astype(np.float64))) - y) / 4.0
    np.testing.assert_allclose(z.grad.data, expected, rtol=1e-5, atol=1e-7)


def test_bce_length_mismatch_rejected():
    with pytest.raises(ValueError, match="mismatch"):
        _bce([0.5, 0.5], [1.0], [1.0, 1.0])


# ----------------------------------------------------------- split_by_time


def _rec(ts, tag=""):
    return EmailRecord(subject=tag, from_addr="a@x.com", to_addrs=["b@y.com"],
                       label=0, first_seen=ts)


def test_split_sizes_floor_with_remainder_to_test():
    records = [_rec(f"2025-01-{d:02d}T00:00:00") for d in range(1, 11)]
    tr, va, te = split_by_time(records)
    assert (len(tr), len(va), len(te)) == (7, 1, 2)


def test_split_orders_shuffled_timestamps():
    days = list(range(1, 21))
    np.random.default_rng(0).shuffle(days)
    records = [_rec(f"2025-03-{d:02d}T08:00:00") for d in days]
    tr, va, te = split_by_time(records)
    seen = [r.first_seen for r in tr + va + te]
    assert seen == sorted(seen)


def test_split_missing_timestamps_sort_last():
    records = [_rec(None, "late1"), _rec("2025-01-02T00:00:00", "b"),
               _rec(None, "late2"), _rec("2025-01-01T00:00:00", "a")]
    tr, va, te = split_by_time(records, fractions=(0.5, 0.25, 0.25))
    ordered = tr + va + te
    assert [r.subject for r in ordered] == ["a", "b", "late1", "late2"]


def test_split_unparseable_timestamp_treated_as_missing():
    records = [_rec("yesterday-ish", "junk"), _rec("2025-01-01T00:00:00", "a")]
    tr, va, te = split_by_time(records, fractions=(0.5, 0.0, 0.5))
    assert tr[0].subject == "a" and te[0].subject == "junk"


def test_split_equal_timestamps_keep_input_order():
    records = [_rec("2025-01-01T00:00:00", f"r{i}") for i in range(6)]
    tr, va, te = split_by_time(records, fractions=(0.5, 0.25, 0.25))
    assert [r.subject for r in tr + va + te] == [f"r{i}" for i in range(6)]


def test_split_rejects_bad_fractions():
    with pytest.raises(ValueError):
        split_by_time([_rec(None)], fractions=(0.5, 0.2, 0.2))
    with pytest.raises(ValueError):
        split_by_time([_rec(None)], fractions=(1.2, -0.1, -0.1))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.one_of(st.none(), st.integers(min_value=1, max_value=28)),
                min_size=1, max_size=40))
def test_split_is_a_partition(days):
    records = [_rec(None if d is None else f"2025-02-{d:02d}T00:00:00", f"id{i}")
               for i, d in enumerate(days)]
    tr, va, te = split_by_time(records)
    n = len(records)
    assert (len(tr), len(va)) == (int(n * 0.7), int(n * 0.15))
    assert len(te) == n - len(tr) - len(va)
    assert sorted(r.subject for r in tr + va + te) == sorted(r.subject for r in records)


# -------------------------------------------------------- balanced_batches


def test_balanced_batches_majority_once_minority_cycles():
    labels = np.array([0] * 1000 + [1] * 10)
    batches = balanced_batches(labels, batch_size=8, rng=np.random.default_rng(0))
    assert len(batches) == 250
    for b in batches:
        assert labels[b[:4]].sum() == 0 and labels[b[4:]].sum() == 4
    benign = np.concatenate([b[:4] for b in batches])
    assert sorted(benign) == list(range(1000))  # each majority sample exactly once
    malicious = np.concatenate([b[4:] for b in batches])
    counts = np.bincount(malicious)[1000:]
    assert (counts == 100).all()  # 1000 minority draws over 10 samples


def test_equal_classes_one_batch_holds_everyone():
    labels = np.array([0] * 64 + [1] * 64)
    batches = balanced_batches(labels, batch_size=128, rng=np.random.default_rng(3))
    assert len(batches) == 1
    assert sorted(batches[0]) == list(range(128))


def test_tiny_pools_cycle_to_fill_one_batch():
    labels = np.array([0, 0, 0, 1, 1, 1])
    (batch,) = balanced_batches(labels, batch_size=8, rng=np.random.default_rng(1))
    assert len(batch) == 8
    assert set(batch[:4]) <= {0, 1, 2} and set(batch[4:]) <= {3, 4, 5}


def test_balanced_batches_same_seed_identical():
    labels = np.array([0] * 30 + [1] * 6)
    a = balanced_batches(labels, batch_size=4, rng=np.random.default_rng(9))
    b = balanced_batches(labels, batch_size=4, rng=np.random.default_rng(9))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_balanced_batches_rejects_odd_and_single_class():
    with pytest.raises(ValueError, match="even"):
        balanced_batches(np.array([0, 1]), batch_size=3, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="both classes"):
        balanced_batches(np.array([1, 1, 1]), batch_size=2, rng=np.random.default_rng(0))


def test_effective_weights_multiply_bec_records():
    ds = EncodedDataset(
        ids=np.zeros((3, 4), dtype=np.int64), mask=np.zeros((3, 4), dtype=np.int64),
        ctx=np.zeros((3, 4), dtype=np.float32), labels=np.array([0, 1, 1]),
        weights=np.array([1.0, 2.0, 0.5], dtype=np.float32),
        groups=["bec", "spam", "bec"])
    out = effective_weights(ds, bec_weight=100.0)
    np.testing.assert_allclose(out, [100.0, 2.0, 50.0])


# ------------------------------------------------------------- TrainConfig


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="even"):
        TrainConfig(batch_size=7)
    TrainConfig(batch_size=7, balanced=False)  # odd is fine unbalanced
    with pytest.raises(ValueError, match="unknown"):
        TrainConfig.from_dict({"epochs": 2, "momentum": 0.9})


def test_train_config_round_trip():
    cfg = TrainConfig(epochs=2, batch_size=16, learning_rate=1e-3, seed=5)
    assert TrainConfig.from_dict(asdict(cfg)) == cfg


# ------------------------------------------------------------------ train


TINY = dict(vocab_size=100, hidden=16, ffn_dim=32, heads=2,
            max_positions=16, block_plan=("T", "A"))


def _tiny_dataset(n_per_class=32, seed=0, max_len=16):
    vocab = Vocabulary(synthetic_vocab())
    records = make_corpus(n=2 * n_per_class, malicious_frac=0.5, seed=seed)
    return encode_records(records, vocab, max_len=max_len)


def test_lr_zero_leaves_params_untouched_and_loss_flat():
    ds = _tiny_dataset()
    model = init_random(ModelConfig(**TINY), seed=0)
    before = {k: p.data.copy() for k, p in model.params.items()}
    # one full batch per epoch: same 64 samples, so the loss cannot move
    history = train(model, ds, TrainConfig(epochs=3, batch_size=64,
                                           learning_rate=0.0, seed=0))
    for k, p in model.params.items():
        assert np.array_equal(p.data, before[k]), k
    losses = [row["train_loss"] for row in history.epochs]
    assert losses[1] == pytest.approx(losses[0], rel=1e-5)
    assert losses[2] == pytest.approx(losses[0], rel=1e-5)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_nonfinite_loss_aborts_with_diagnostics():
    ds = _tiny_dataset()
    ds.weights[:] = 1e38  # mean over the batch overflows float32
    model = init_random(ModelConfig(**TINY), seed=0)
    with pytest.raises(TrainingError, match="non-finite"):
        train(model, ds, TrainConfig(epochs=1, batch_size=64, seed=0))


def test_freeze_preset_keeps_frozen_tensors_bit_identical():
    ds = _tiny_dataset()
    cfg = ModelConfig(vocab_size=100, hidden=16, ffn_dim=32, heads=2,
                      max_positions=16, block_plan=("T", "A", "T", "A"))
    model = init_random(cfg, seed=1)
    before = {k: p.data.copy() for k, p in model.params.items()}
    train(model, ds, TrainConfig(epochs=2, batch_size=32, learning_rate=1e-3,
                                 seed=1, freeze="partial-finetune"))
    frozen_prefixes = ("embeddings.", "blocks.0.")
    for k, p in model.params.items():
        if k.startswith(frozen_prefixes):
            assert np.array_equal(p.data, before[k]), f"{k} moved while frozen"
    moved = [k for k, p in model.params.items()
             if not k.startswith(frozen_prefixes) and not np.array_equal(p.data, before[k])]
    assert moved, "no trainable tensor changed"


@pytest.mark.parametrize("freeze", [None, "partial-finetune"])
def test_train_matches_dense_gradients_and_dense_adam(freeze):
    """train() leaves every parameter bit-identical to a hand loop that
    densifies each gradient and runs the out-of-place Adam formula over
    every element; frozen tensors stay byte-identical."""
    ds = _tiny_dataset()
    cfg = ModelConfig(**{**TINY, "block_plan": ("T", "A", "T", "A")})
    config = TrainConfig(epochs=2, batch_size=16, learning_rate=1e-3, seed=3, freeze=freeze)
    trained = init_random(cfg, seed=3)
    start = {n: p.data.copy() for n, p in trained.params.items()}
    train(trained, ds, config)

    model = init_random(cfg, seed=3)
    set_trainable(model, freeze_preset(cfg) if freeze else [])
    rng = np.random.default_rng(config.seed)
    weights = effective_weights(ds, config.bec_weight)
    moments = {n: (0.0, 0.0) for n, p in model.params.items() if p.trainable}
    t = 0
    for _ in range(config.epochs):
        for idx in balanced_batches(ds.labels, config.batch_size, rng):
            with Tape() as tape:
                probs = forward_probs(model, ds.ids[idx], ds.mask[idx], ds.ctx[idx])
                loss = bce_loss(probs, ds.labels[idx], weights[idx])
            backward(tape, loss)
            t += 1
            c1, c2 = 1.0 - T.ADAM_BETA1 ** t, 1.0 - T.ADAM_BETA2 ** t
            for name, (m, v) in moments.items():
                p = model.params[name]
                g = T.dense_grad(p.grad)
                m = T.ADAM_BETA1 * m + (1.0 - T.ADAM_BETA1) * g
                v = T.ADAM_BETA2 * v + (1.0 - T.ADAM_BETA2) * (g * g)
                update = (config.learning_rate * (m / c1) / (np.sqrt(v / c2) + T.ADAM_EPS))
                p.data = p.data - update.astype(p.data.dtype)
                moments[name] = (m, v)
                p.grad = None
    assert t == 8
    for name, p in trained.params.items():
        assert np.array_equal(p.data, model.params[name].data), name
        if name not in moments:
            assert p.data.tobytes() == start[name].tobytes(), name
    assert (freeze is None) == ("embeddings.token" in moments)
    # the last transformer, whose attention projects no key, trains its key bias too
    assert {"blocks.2.attn.k.w", "blocks.2.attn.k.b", "blocks.2.attn.v.b"} <= moments.keys()


def test_training_is_deterministic(tmp_path):
    def run(out):
        ds = _tiny_dataset(seed=2)
        model = init_random(ModelConfig(**TINY), seed=2)
        hist = train(model, ds, TrainConfig(epochs=2, batch_size=32,
                                            learning_rate=1e-3, seed=2),
                     out_dir=str(out))
        return asdict(hist), out / "best"

    h1, d1 = run(tmp_path / "a")
    h2, d2 = run(tmp_path / "b")
    assert h1 == h2
    for name in ("manifest.json", "tensors.bin"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_tiny_separable_run_learns(tmp_path):
    vocab = Vocabulary(synthetic_vocab())
    records = make_corpus(n=400, seed=0)
    tr, va, _ = split_by_time(records)
    model = init_random(ModelConfig(vocab_size=100, hidden=32, ffn_dim=64, heads=2,
                                    max_positions=32, block_plan=("T", "A")), seed=0)
    history = train(model, encode_records(tr, vocab, max_len=32),
                    TrainConfig(epochs=3, batch_size=32, learning_rate=1e-3, seed=0),
                    val_set=encode_records(va, vocab, max_len=32),
                    out_dir=str(tmp_path))
    assert history.epochs[-1]["train_loss"] < history.epochs[0]["train_loss"]
    assert history.best_val_auc is not None and history.best_val_auc >= 0.95
    assert history.best_epoch is not None
    assert os.path.exists(tmp_path / "best" / "manifest.json")


def test_unbalanced_training_runs_and_saves_final(tmp_path):
    ds = _tiny_dataset(n_per_class=16)
    model = init_random(ModelConfig(**TINY), seed=0)
    history = train(model, ds, TrainConfig(epochs=1, batch_size=10, balanced=False,
                                           learning_rate=1e-3, seed=0),
                    out_dir=str(tmp_path))
    assert len(history.epochs) == 1 and "val_auc" not in history.epochs[0]
    # no validation set: the final weights land in best/
    assert os.path.exists(tmp_path / "best" / "tensors.bin")


def test_validation_auc_recorded_per_epoch():
    ds = _tiny_dataset(n_per_class=16)
    model = init_random(ModelConfig(**TINY), seed=3)
    history = train(model, ds, TrainConfig(epochs=2, batch_size=16,
                                           learning_rate=1e-3, seed=3), val_set=ds)
    assert all("val_auc" in row for row in history.epochs)
    probs = score_dataset(model, ds)
    assert probs.shape == (len(ds),)
