import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catbert import tensor as T
from catbert.tensor import (
    AdamState,
    GradientError,
    Parameter,
    RowGrad,
    ShapeError,
    Tape,
    Tensor,
    adam_step,
    backward,
    dense_grad,
)

from oracles import grad_check, sum_all


def matmul_oracle(a, b):
    # triple-loop reference, deliberately naive
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m), dtype=np.float64)
    for i in range(n):
        for j in range(m):
            for p in range(k):
                out[i, j] += float(a[i, p]) * float(b[p, j])
    return out


class TestMatmul:
    def test_worked_example(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        out = T.matmul(a, b)
        assert np.array_equal(out.data, np.array([[17.0], [39.0]], dtype=np.float32))

    def test_against_triple_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = rng.standard_normal((4, 6)).astype(np.float32)
            b = rng.standard_normal((6, 3)).astype(np.float32)
            out = T.matmul(Tensor(a), Tensor(b)).data
            assert np.max(np.abs(out - matmul_oracle(a, b))) <= 1e-6

    def test_batched_broadcast(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
        b = rng.standard_normal((5, 6)).astype(np.float32)
        out = T.matmul(Tensor(a), Tensor(b)).data
        assert out.shape == (2, 3, 4, 6)
        assert np.allclose(out[1, 2], a[1, 2] @ b, atol=1e-5)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_one_d_rejected(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


class TestFlatMatmul:
    """A 2-D right operand folds the batch into one GEMM; the oracle is
    numpy's batched matmul and ``_unbroadcast``, the path it replaced."""

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("shape", [(4, 7, 6), (4, 1, 6), (2, 3, 5, 6)])
    def test_forward_and_gradients_match_batched_oracle(self, shape, dtype, tol):
        rng = np.random.default_rng(len(shape) + shape[1])
        a = Parameter("a", 0.5 * rng.standard_normal(shape), dtype=dtype)
        b = Parameter("b", 0.5 * rng.standard_normal((shape[-1], 3)), dtype=dtype)
        g = rng.standard_normal(shape[:-1] + (3,)).astype(dtype)
        with Tape() as tape:
            out = T.matmul(a, b)
            loss = sum_all(T.mul(out, g))
        backward(tape, loss)
        want = np.matmul(a.data, b.data)
        want_ga = T._unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        want_gb = T._unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        assert out.shape == want.shape and out.data.dtype == dtype
        assert np.max(np.abs(out.data - want)) < tol
        assert a.grad.shape == a.shape and b.grad.shape == b.shape
        assert np.max(np.abs(a.grad.data - want_ga)) < tol
        assert np.max(np.abs(b.grad.data - want_gb)) < tol

    @pytest.mark.parametrize("dtype,bound", [(np.float32, 1e-2), (np.float64, 1e-5)])
    def test_grad_check_three_d_by_two_d(self, dtype, bound):
        rng = np.random.default_rng(8)
        w1 = Parameter("w1", 0.5 * rng.standard_normal((5, 6)), dtype=dtype)
        b1 = Parameter("b1", 0.1 * rng.standard_normal(6), dtype=dtype)
        w2 = Parameter("w2", 0.5 * rng.standard_normal((6, 2)), dtype=dtype)
        x = rng.standard_normal((3, 4, 5))

        def run():
            h = T.gelu(T.add(T.matmul(Tensor(x, dtype=w1.data.dtype), w1), b1))
            return T.mean_all(T.sigmoid(T.matmul(h, w2)))

        assert grad_check(run, [w1, b1, w2], eps=1e-3, seed=0) < bound


class TestLayerNorm:
    def test_constant_row_maps_to_bias(self):
        gain = Parameter("g", np.ones(3))
        bias = Parameter("b", np.array([7.0, 8.0, 9.0]))
        out = T.layer_norm(Tensor([[1.0, 1.0, 1.0]]), gain, bias)
        assert np.allclose(out.data, [[7.0, 8.0, 9.0]], atol=1e-4)

    def test_two_point_row(self):
        gain = Parameter("g", np.ones(2))
        bias = Parameter("b", np.zeros(2))
        out = T.layer_norm(Tensor([[0.0, 2.0]]), gain, bias)
        assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-5)

    def test_output_is_unit_stats(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 8)).astype(np.float32)
        out = T.layer_norm(Tensor(x), Parameter("g", np.ones(8)), Parameter("b", np.zeros(8)))
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-5)
        assert np.allclose(out.data.var(axis=-1), 1.0, atol=1e-3)

    def test_bad_gain_shape(self):
        with pytest.raises(ShapeError):
            T.layer_norm(Tensor(np.zeros((2, 4))), Parameter("g", np.ones(3)),
                         Parameter("b", np.zeros(4)))


class TestSoftmax:
    def test_uniform(self):
        out = T.softmax_rows(Tensor([[0.0, 0.0]]))
        assert np.allclose(out.data, [[0.5, 0.5]])

    def test_extreme_logits_stay_finite(self):
        out = T.softmax_rows(Tensor([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out.data))
        assert np.allclose(out.data, [[1.0, 0.0]], atol=1e-6)

    def test_shift_invariance(self):
        x = np.array([[0.3, -1.2, 2.0]], dtype=np.float32)
        a = T.softmax_rows(Tensor(x)).data
        b = T.softmax_rows(Tensor(x + 5.0)).data
        assert np.allclose(a, b, atol=1e-6)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8))
    def test_rows_sum_to_one(self, row):
        out = T.softmax_rows(Tensor([row])).data
        assert abs(out.sum() - 1.0) < 1e-5
        assert np.all(out >= 0)


def attention_oracle(q, k, v, q_rows, kv_rows, heads, scale):
    """softmax(q kᵀ · scale) v in float64, one segment and one head at a
    time; rows no query segment covers stay NaN."""
    q, k, v = (np.asarray(a, np.float64) for a in (q, k, v))
    w, wv = q.shape[1] // heads, v.shape[1] // heads
    out = np.full((q.shape[0], v.shape[1]), np.nan)
    for qs, ql, ks, kl in zip(*q_rows, *kv_rows):
        for h in range(heads):
            s = q[qs:qs + ql, h * w:(h + 1) * w] @ k[ks:ks + kl, h * w:(h + 1) * w].T * scale
            e = np.exp(s - s.max(axis=1, keepdims=True))
            out[qs:qs + ql, h * wv:(h + 1) * wv] = (
                e / e.sum(axis=1, keepdims=True) @ v[ks:ks + kl, h * wv:(h + 1) * wv])
    return out


class TestAttention:
    """``attention`` against a per-segment numpy reference. Key segments of
    length 1, 2 and 5 (a full row); queries either are the keys' own rows
    ("self", as in a transformer layer) or two rows per segment over the
    same keys ("fold", as in the [CLS] layer's folded queries)."""

    KV_ROWS = (np.array([0, 1, 3]), np.array([1, 2, 5]))
    LAYOUTS = {"self": KV_ROWS, "fold": (np.array([0, 2, 4]), np.array([2, 2, 2]))}
    TOL = {np.float32: 1e-6, np.float64: 1e-12}

    def inputs(self, layout, heads, dtype=np.float64, seed=0):
        """q, k (·, heads·4) and v (N, heads·3) whose rows fill their segments."""
        rng = np.random.default_rng(seed)
        q_rows = self.LAYOUTS[layout]
        m, n = int(q_rows[1].sum()), int(self.KV_ROWS[1].sum())
        q, k, v = (rng.standard_normal(shape).astype(dtype) for shape in
                   ((m, heads * 4), (n, heads * 4), (n, heads * 3)))
        return q, k, v, q_rows

    def attend(self, q, k, v, q_rows, heads):
        return T.attention(*(Tensor(a, dtype=a.dtype) for a in (q, k, v)),
                           q_rows, self.KV_ROWS, heads, 0.5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["self", "fold"])
    @pytest.mark.parametrize("heads", [1, 3])
    def test_matches_per_segment_reference(self, heads, layout, dtype):
        q, k, v, q_rows = self.inputs(layout, heads, dtype)
        out = self.attend(q, k, v, q_rows, heads)
        want = attention_oracle(q, k, v, q_rows, self.KV_ROWS, heads, 0.5)
        assert out.data.dtype == dtype and out.data.shape == want.shape
        assert np.max(np.abs(out.data - want)) < self.TOL[dtype]

    @pytest.mark.parametrize("layout", ["self", "fold"])
    @pytest.mark.parametrize("heads", [1, 3])
    def test_a_segment_reads_only_its_own_rows(self, heads, layout):
        """Redrawing every row outside one segment leaves that segment's
        output bit-identical."""
        q, k, v, q_rows = self.inputs(layout, heads, np.float32)
        base = self.attend(q, k, v, q_rows, heads).data
        redrawn = self.inputs(layout, heads, np.float32, seed=1)
        for i in range(3):
            qs, ql = int(q_rows[0][i]), int(q_rows[1][i])
            ks, kl = int(self.KV_ROWS[0][i]), int(self.KV_ROWS[1][i])
            q2, k2, v2 = (a.copy() for a in redrawn[:3])
            q2[qs:qs + ql], k2[ks:ks + kl], v2[ks:ks + kl] = (
                q[qs:qs + ql], k[ks:ks + kl], v[ks:ks + kl])
            out = self.attend(q2, k2, v2, q_rows, heads)
            assert out.data[qs:qs + ql].tobytes() == base[qs:qs + ql].tobytes(), i

    @pytest.mark.parametrize("layout", ["self", "fold"])
    @pytest.mark.parametrize("heads", [1, 3])
    def test_gradients_pass_grad_check_in_f64(self, heads, layout):
        q, k, v, q_rows = self.inputs(layout, heads)
        q, k, v = (Parameter(n, a, dtype=np.float64) for n, a in zip("qkv", (q, k, v)))
        weights = Tensor(np.random.default_rng(2).standard_normal((q.shape[0], v.shape[1])),
                         dtype=np.float64)

        def run():
            out = T.attention(q, k, v, q_rows, self.KV_ROWS, heads, 0.5)
            return sum_all(T.mul(out, weights))

        # the check-03 f64 bound
        assert grad_check(run, [q, k, v], eps=3e-4, samples_per_param=16, seed=0) < 1e-4

    def test_empty_batch(self):
        rows = (np.zeros(0, np.int64), np.zeros(0, np.int64))
        q, k, v = (Parameter(n, np.zeros((0, w), np.float32)) for n, w in zip("qkv", (4, 4, 3)))
        with Tape() as tape:
            out = T.attention(q, k, v, rows, rows, 1, 0.5)
            loss = sum_all(out)
        backward(tape, loss)
        assert out.data.shape == (0, 3) and out.data.dtype == np.float32
        assert [p.grad.data.shape for p in (q, k, v)] == [(0, 4), (0, 4), (0, 3)]


class TestEmbedding:
    def test_gather_and_shape(self):
        table = Parameter("emb", np.arange(12, dtype=np.float32).reshape(4, 3))
        out = T.embedding_lookup(table, np.array([[0, 3], [1, 1]]))
        assert out.shape == (2, 2, 3)
        assert np.array_equal(out.data[0, 1], table.data[3])

    def test_out_of_range_id(self):
        table = Parameter("emb", np.zeros((4, 3)))
        with pytest.raises(IndexError, match="7"):
            T.embedding_lookup(table, np.array([7]))

    def test_repeated_id_grad_accumulates(self):
        table = Parameter("emb", np.zeros((3, 2), dtype=np.float32))
        with Tape() as tape:
            out = T.embedding_lookup(table, np.array([1, 1, 1]))
            loss = sum_all(out)
        backward(tape, loss)
        assert np.array_equal(dense_grad(table.grad)[1], np.array([3.0, 3.0], dtype=np.float32))
        assert np.array_equal(dense_grad(table.grad)[0], np.zeros(2, dtype=np.float32))

    def test_empty_ids(self):
        table = Parameter("emb", np.zeros((3, 2)))
        out = T.embedding_lookup(table, np.zeros((0,), dtype=np.int64))
        assert out.shape == (0, 2)


def scatter_oracle(shape, dtype, *lookups):
    """The dense embedding gradient: each lookup's output gradient rows
    scatter-added into zeros of the table's shape, in order."""
    out = np.zeros(shape, dtype=dtype)
    for ids, g in lookups:
        np.add.at(out, np.asarray(ids).reshape(-1), g.reshape(-1, shape[1]))
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestRowSparseGrad:
    """``embedding_lookup``'s row-sparse gradient against the dense
    ``np.add.at`` scatter, bit for bit."""

    def lookups(self, table, ids_list, rng):
        weights = [rng.normal(0, 1, np.shape(ids) + (table.shape[1],)).astype(table.dtype)
                   for ids in ids_list]
        with Tape() as tape:
            terms = [sum_all(T.mul(T.embedding_lookup(table, ids), w))
                     for ids, w in zip(ids_list, weights)]
            loss = terms[0]
            for term in terms[1:]:
                loss = T.add(loss, term)
        backward(tape, loss)
        return list(zip(ids_list, weights))

    @pytest.mark.parametrize("ids", [[[4, 1, 4], [4, 0, 1]], [], [[2]]],
                             ids=["repeated", "empty", "single"])
    def test_one_lookup(self, dtype, ids):
        rng = np.random.default_rng(0)
        table = Parameter("emb", rng.normal(0, 1, (6, 3)), dtype=dtype)
        ids = np.array(ids, dtype=np.int64)
        done = self.lookups(table, [ids], rng)
        assert isinstance(table.grad, RowGrad)
        assert np.array_equal(table.grad.rows, np.unique(ids))
        assert table.grad.values.dtype == dtype
        assert np.array_equal(dense_grad(table.grad), scatter_oracle(table.shape, dtype, *done))

    def test_two_lookups_give_a_dense_sum(self, dtype):
        # fan-in sums one way: dense, whatever the two gradients are
        rng = np.random.default_rng(1)
        table = Parameter("emb", rng.normal(0, 1, (8, 3)), dtype=dtype)
        done = self.lookups(table, [np.array([5, 1, 5]), np.array([[1, 7], [2, 2]])], rng)
        assert isinstance(table.grad, Tensor)
        want = scatter_oracle(table.shape, dtype, *done)
        assert table.grad.data.dtype == dtype and table.grad.data.tobytes() == want.tobytes()

    def test_lookup_and_matmul_give_a_dense_sum(self, dtype):
        rng = np.random.default_rng(2)
        table = Parameter("emb", rng.normal(0, 1, (5, 3)), dtype=dtype)
        ids, x = np.array([3, 0, 3]), rng.normal(0, 1, (2, 5)).astype(dtype)
        w = rng.normal(0, 1, (3, 3)).astype(dtype)
        with Tape() as tape:
            loss = T.add(sum_all(T.matmul(x, table)),
                         sum_all(T.mul(T.embedding_lookup(table, ids), w)))
        backward(tape, loss)
        assert isinstance(table.grad, Tensor)
        # the tape runs backward: the lookup's gradient arrives first
        assert np.array_equal(table.grad.data,
                              scatter_oracle(table.shape, dtype, (ids, w)) + x.sum(axis=0)[:, None])

    def test_table_fed_through_another_op(self, dtype):
        # a RowGrad reaching an op's output is densified for that op's grad_fn
        table = Parameter("emb", np.ones((4, 2)), dtype=dtype)
        with Tape() as tape:
            loss = sum_all(T.embedding_lookup(T.mul(table, 3.0), np.array([2, 2])))
        backward(tape, loss)
        want = np.zeros((4, 2), dtype)
        want[2] = 6.0
        assert np.array_equal(table.grad.data, want)


class TestBackward:
    def test_sum_gives_ones(self):
        w = Parameter("w", np.random.default_rng(3).standard_normal((3, 4)).astype(np.float32))
        with Tape() as tape:
            loss = sum_all(w)
        backward(tape, loss)
        assert np.array_equal(w.grad.data, np.ones((3, 4), dtype=np.float32))

    def test_sum_of_square_gives_two_w(self):
        w = Parameter("w", np.random.default_rng(4).standard_normal((2, 5)).astype(np.float32))
        with Tape() as tape:
            loss = sum_all(T.mul(w, w))
        backward(tape, loss)
        assert np.allclose(w.grad.data, 2.0 * w.data, atol=1e-6)

    def test_fanout_accumulates(self):
        # w used twice: loss = sum(w) + sum(w) must give grad 2 everywhere
        w = Parameter("w", np.ones((2, 2), dtype=np.float32))
        with Tape() as tape:
            loss = T.add(sum_all(w), sum_all(w))
        backward(tape, loss)
        assert np.array_equal(w.grad.data, np.full((2, 2), 2.0, dtype=np.float32))

    def test_non_scalar_loss_rejected(self):
        w = Parameter("w", np.ones(3))
        with Tape() as tape:
            out = T.mul(w, 2.0)
        with pytest.raises(GradientError, match="scalar"):
            backward(tape, out)

    def test_frozen_param_gets_no_grad(self):
        w = Parameter("w", np.ones(3), trainable=False)
        u = Parameter("u", np.ones(3))
        with Tape() as tape:
            loss = sum_all(T.add(w, u))
        backward(tape, loss)
        assert w.grad is None
        assert u.grad is not None

    def test_constant_operand_gets_no_grad(self):
        w = Parameter("w", np.ones(3))
        with Tape() as tape:
            loss = sum_all(T.add(w, np.array([1.0, 2.0, 3.0], dtype=np.float32)))
        backward(tape, loss)
        assert np.array_equal(w.grad.data, np.ones(3, dtype=np.float32))

    def test_ops_off_tape_record_nothing(self):
        w = Parameter("w", np.ones(3))
        out = T.mul(w, 3.0)  # no active tape
        assert isinstance(out, Tensor)
        with Tape() as tape:
            pass
        assert len(tape) == 0


class TestElementwiseGrads:
    def check(self, fn, x, expect):
        p = Parameter("p", x)
        with Tape() as tape:
            loss = sum_all(fn(p))
        backward(tape, loss)
        assert np.allclose(p.grad.data, expect, atol=1e-5)

    def test_relu(self):
        x = np.array([-1.0, 0.0, 2.0], dtype=np.float32)
        self.check(T.relu, x, [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("shape", [(), (0,), (3, 0)])
    def test_relu_and_gelu_keep_scalar_and_empty_shapes(self, shape):
        x = Tensor(np.full(shape, -1.0))
        assert T.relu(x).shape == T.gelu(x).shape == shape

    def test_sigmoid(self):
        x = np.array([0.0], dtype=np.float32)
        self.check(T.sigmoid, x, [0.25])

    def test_sigmoid_saturates_without_overflow(self):
        out = T.sigmoid(Tensor([-100.0, 100.0]))
        assert np.all(np.isfinite(out.data))
        assert np.allclose(out.data, [0.0, 1.0], atol=1e-6)

    def test_gelu_matches_fd(self):
        x = np.linspace(-3, 3, 13).astype(np.float64)
        p = Parameter("p", x, dtype=np.float64)
        with Tape() as tape:
            loss = sum_all(T.gelu(p))
        backward(tape, loss)
        eps = 1e-6
        fd = np.empty_like(x)
        for i in range(x.size):
            xp, xm = x.copy(), x.copy()
            xp[i] += eps
            xm[i] -= eps
            fd[i] = (T.gelu(Tensor(xp, dtype=np.float64)).data.sum()
                     - T.gelu(Tensor(xm, dtype=np.float64)).data.sum()) / (2 * eps)
        assert np.allclose(p.grad.data, fd, atol=1e-6)

    def test_clip_grad_masks_outside(self):
        x = np.array([-2.0, 0.5, 3.0], dtype=np.float32)
        p = Parameter("p", x)
        with Tape() as tape:
            loss = sum_all(T.clip(p, 0.0, 1.0))
        backward(tape, loss)
        assert np.array_equal(p.grad.data, np.array([0.0, 1.0, 0.0], dtype=np.float32))


class TestShapeOps:
    def test_reshape_transpose_roundtrip_grad(self):
        rng = np.random.default_rng(5)
        p = Parameter("p", rng.standard_normal((2, 3, 4)).astype(np.float32))
        with Tape() as tape:
            out = T.transpose(T.reshape(p, (6, 4)), (1, 0))
            loss = sum_all(T.mul(out, out))
        backward(tape, loss)
        assert np.allclose(p.grad.data, 2.0 * p.data, atol=1e-6)

    def test_take_rows_grad_zero_pads(self):
        p = Parameter("p", np.arange(10, dtype=np.float32).reshape(5, 2))
        with Tape() as tape:
            out = T.take_rows(p, np.array([3, 0]))
            loss = sum_all(out)
        backward(tape, loss)
        assert np.array_equal(out.data, [[6, 7], [0, 1]])
        expect = np.zeros((5, 2), dtype=np.float32)
        expect[[0, 3]] = 1.0
        assert np.array_equal(p.grad.data, expect)


    def test_take_rows_slice_is_a_view_with_a_zero_padded_grad(self):
        p = Parameter("p", np.arange(10, dtype=np.float32).reshape(5, 2))
        with Tape() as tape:
            out = T.take_rows(p, slice(1, 3))
            loss = sum_all(out)
        backward(tape, loss)
        assert np.shares_memory(out.data, p.data)
        assert np.array_equal(out.data, [[2, 3], [4, 5]])
        expect = np.zeros((5, 2), dtype=np.float32)
        expect[1:3] = 1.0
        assert np.array_equal(p.grad.data, expect)


class TestAdam:
    def test_quadratic_converges(self):
        w = Parameter("w", np.array([0.0], dtype=np.float32))
        state = AdamState(lr=0.1)
        for _ in range(400):
            with Tape() as tape:
                d = T.sub(w, np.array([3.0], dtype=np.float32))
                loss = sum_all(T.mul(d, d))
            backward(tape, loss)
            adam_step([w], state)
        assert abs(float(w.data[0]) - 3.0) < 1e-2

    def test_frozen_untouched_and_grads_consumed(self):
        w = Parameter("w", np.ones(2, dtype=np.float32))
        frozen = Parameter("f", np.ones(2, dtype=np.float32), trainable=False)
        before = frozen.data.copy()
        with Tape() as tape:
            loss = sum_all(T.mul(T.add(w, frozen), T.add(w, frozen)))
        backward(tape, loss)
        adam_step([w, frozen], AdamState(lr=0.1))
        assert np.array_equal(frozen.data, before)
        assert w.grad is None

    def test_missing_grad_raises(self):
        w = Parameter("w", np.ones(2))
        with pytest.raises(GradientError, match="'w'"):
            adam_step([w], AdamState())

    @staticmethod
    def oracle(p, g, m, v, t, lr):
        """Dense Adam, out of place, over every element."""
        m = T.ADAM_BETA1 * m + (1.0 - T.ADAM_BETA1) * g
        v = T.ADAM_BETA2 * v + (1.0 - T.ADAM_BETA2) * (g * g)
        c1 = 1.0 - T.ADAM_BETA1 ** t
        c2 = 1.0 - T.ADAM_BETA2 ** t
        update = (lr * (m / c1) / (np.sqrt(v / c2) + T.ADAM_EPS)).astype(p.dtype)
        return p - update, m, v

    # Ids looked up in the table at steps 1-3: row 1 has a gradient at step 1
    # only. With "dense", the table also feeds a matmul that step, so its
    # gradient is dense and reaches every row.
    SCHEDULES = {
        "row-sparse": ([1, 3, 3, 0], [3, 7, 0, 3], [8, 8, 0]),
        "dense-between": ([1, 3, 3, 0], "dense", [8, 8, 0]),
    }

    def test_bit_identical_to_out_of_place_formula(self):
        """A dense weight and a (V, d) table over 3 steps against the dense
        formula. A row whose only gradient was at step 1 keeps moving (this is
        exact Adam, not lazy Adam), rows never looked up stay byte-identical,
        and each step writes into the parameter's own array."""
        for dtype in (np.float32, np.float64):
            for schedule in self.SCHEDULES:
                self.check_schedule(dtype, schedule)

    def check_schedule(self, dtype, schedule):
        rng = np.random.default_rng(9)
        w = Parameter("w", rng.normal(0, 0.02, (7, 5)), dtype=dtype)
        table = Parameter("table", rng.normal(0, 0.02, (9, 4)), dtype=dtype)
        start = table.data.copy()
        state = AdamState(lr=1e-3)
        want = {p.name: (p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data))
                for p in (w, table)}
        row1 = [start[1]]
        for t, ids in enumerate(self.SCHEDULES[schedule], start=1):
            gw = rng.normal(0, 0.01, w.shape).astype(dtype)
            w.grad = Tensor(gw, dtype=dtype)
            dense = ids == "dense"
            ids = np.array([5, 2] if dense else ids)
            out_g = rng.normal(0, 0.01, (ids.size, 4)).astype(dtype)
            x = rng.normal(0, 0.01, (2, 9)).astype(dtype)
            with Tape() as tape:
                loss = sum_all(T.mul(T.embedding_lookup(table, ids), out_g))
                if dense:
                    loss = T.add(sum_all(T.matmul(x, table)), loss)
            backward(tape, loss)
            assert isinstance(table.grad, Tensor if dense else RowGrad)
            g_table = dense_grad(table.grad).copy()
            assert np.array_equal(g_table, scatter_oracle(table.shape, dtype, (ids, out_g))
                                  + (x.sum(axis=0)[:, None] if dense else 0))
            arrays = {p.name: p.data for p in (w, table)}
            adam_step([w, table], state)
            for p, g in ((w, gw), (table, g_table)):
                wp, wm, wv = want[p.name]
                want[p.name] = wp, wm, wv = self.oracle(wp, g, wm, wv, t, 1e-3)
                assert np.array_equal(p.data, wp), (dtype, schedule, p.name, t)
                assert np.array_equal(state.moments[p.name][0], wm)
                assert np.array_equal(state.moments[p.name][1], wv)
                assert p.data is arrays[p.name]  # updated in place
                assert p.data.dtype == dtype
            row1.append(table.data[1].copy())
        assert all(not np.array_equal(a, b) for a, b in zip(row1, row1[1:]))
        if schedule == "row-sparse":
            assert np.array_equal(state.live_rows["table"], [0, 1, 3, 7, 8])
            untouched = [2, 4, 5, 6]
            assert table.data[untouched].tobytes() == start[untouched].tobytes()
        else:  # the matmul reached every row; dense from then on
            assert "table" not in state.live_rows

    def test_blocks_cover_the_whole_array(self, monkeypatch):
        """Arrays longer than one block (a 1-D one walks as one column),
        and tables with more live rows than fit in one, match the formula
        across every block boundary."""
        monkeypatch.setattr(T, "CACHE_BLOCK", 8)
        rng = np.random.default_rng(4)
        w = Parameter("w", rng.normal(0, 0.02, (5, 7)))
        table = Parameter("table", rng.normal(0, 0.02, (30, 3)))
        b = Parameter("b", rng.normal(0, 0.02, 20))
        want = [(p.data.copy(), 0.0, 0.0) for p in (w, table, b)]
        state = AdamState(lr=1e-2)
        for t in (1, 2):
            ids = rng.integers(0, 30, 12)
            gw = rng.normal(0, 0.01, w.shape).astype(np.float32)
            out_g = rng.normal(0, 0.01, (12, 3)).astype(np.float32)
            gb = rng.normal(0, 0.01, b.shape).astype(np.float32)
            w.grad, b.grad = Tensor(gw), Tensor(gb)
            with Tape() as tape:
                loss = sum_all(T.mul(T.embedding_lookup(table, ids), out_g))
            backward(tape, loss)
            g_table = dense_grad(table.grad)
            adam_step([w, table, b], state)
            want = [self.oracle(p, g, m, v, t, 1e-2)
                    for (p, m, v), g in zip(want, (gw, g_table, gb))]
            assert np.array_equal(w.data, want[0][0])
            assert np.array_equal(table.data, want[1][0])
            assert np.array_equal(b.data, want[2][0])
            assert np.array_equal(state.moments["b"][1], want[2][2])

    @pytest.mark.parametrize("n_live", [40, 19])
    def test_table_walk_matches_the_formula(self, monkeypatch, n_live):
        """A (40, 3) table with every row live, or with about half, over 3
        steps: p, m and v equal the dense formula, the rows never live keep
        their bytes, and the update lands in ``p.data``."""
        monkeypatch.setattr(T, "CACHE_BLOCK", 12)
        rng = np.random.default_rng(11)
        table = Parameter("table", rng.normal(0, 0.02, (40, 3)))
        start = table.data.copy()
        live = rng.permutation(40)[:n_live]
        want = table.data.copy(), 0.0, 0.0
        state = AdamState(lr=1e-2)
        for t, ids in enumerate((live, live[::3], live[1::2]), start=1):
            out_g = rng.normal(0, 0.01, (ids.size, 3)).astype(np.float32)
            with Tape() as tape:
                loss = sum_all(T.mul(T.embedding_lookup(table, ids), out_g))
            backward(tape, loss)
            p, m, v = want
            want = self.oracle(p, dense_grad(table.grad), m, v, t, 1e-2)
            data = table.data
            adam_step([table], state)
            assert table.data is data
            assert np.array_equal(table.data, want[0]), (n_live, t)
            assert np.array_equal(state.moments["table"][0], want[1])
            assert np.array_equal(state.moments["table"][1], want[2])
        dead = np.setdiff1d(np.arange(40), live)
        assert table.data[dead].tobytes() == start[dead].tobytes()

    def test_every_row_live_updates_through_views(self):
        """A table whose every row is live walks consecutive rows through
        views: the second step on a (4096, 64) float32 table (1 MiB) holds
        at most two blocks of scratch and one of gradient beyond its inputs,
        where a gather and scatter of each block would also copy p, m and v."""
        rng = np.random.default_rng(12)
        table = Parameter("table", rng.normal(0, 0.02, (4096, 64)))
        state = AdamState(lr=1e-3)
        rows = np.arange(4096)
        for _ in range(2):
            table.grad = RowGrad(rows, rng.normal(0, 0.01, (4096, 64)).astype(np.float32),
                                 table.shape)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                adam_step([table], state)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert peak <= 1.25 * 2**20, peak / 2**20

    def test_raises_inside_an_active_tape(self):
        w = Parameter("w", np.ones(2, dtype=np.float32))
        w.grad = Tensor(np.ones(2, dtype=np.float32))
        with Tape():
            with pytest.raises(GradientError, match="Tape"):
                adam_step([w], AdamState())
        adam_step([w], AdamState())
        assert w.grad is None

    def test_step_does_not_write_through_to_the_callers_array(self):
        """``Parameter`` copies its input, so the in-place update leaves the
        array a caller passed in as it was; the builders' no-copy path
        keeps the array it is handed."""
        arr = np.ones(3, dtype=np.float32)
        p = Parameter("w", arr)
        p.grad = Tensor(np.ones(3, dtype=np.float32))
        adam_step([p], AdamState(lr=0.1))
        assert np.array_equal(arr, np.ones(3, dtype=np.float32))
        assert np.allclose(p.data, 0.9)
        strided = np.ones((3, 4), dtype=np.float32).T
        assert Parameter("s", strided).data.flags.c_contiguous
        assert Parameter._adopt("w", arr).data is arr

    @pytest.mark.parametrize("view", [lambda a: a[:, ::2], lambda a: a.T])
    def test_raises_on_a_strided_parameter(self, view):
        """A step cannot write its walk through a strided view in place,
        so it refuses one before changing any state."""
        w = Parameter("w", np.ones((3, 4), dtype=np.float32))
        w.data = view(w.data)
        w.grad = Tensor(np.ones(w.shape, dtype=np.float32))
        state = AdamState()
        with pytest.raises(GradientError, match="C-contiguous"):
            adam_step([w], state)
        assert state.step == 0 and state.moments == {}

    def test_first_step_size_is_lr(self):
        # bias correction makes the first step exactly lr in magnitude
        w = Parameter("w", np.array([5.0], dtype=np.float32))
        with Tape() as tape:
            loss = sum_all(T.mul(w, 2.0))
        backward(tape, loss)
        adam_step([w], AdamState(lr=0.01))
        assert abs(float(w.data[0]) - (5.0 - 0.01)) < 1e-6


class TestGradCheck:
    def test_small_mlp_f32(self):
        rng = np.random.default_rng(6)
        w1 = Parameter("w1", 0.5 * rng.standard_normal((4, 5)).astype(np.float32))
        b1 = Parameter("b1", np.zeros(5, dtype=np.float32))
        w2 = Parameter("w2", 0.5 * rng.standard_normal((5, 1)).astype(np.float32))
        x = np.asarray(rng.standard_normal((3, 4)), dtype=np.float32)

        def run():
            h = T.gelu(T.add(T.matmul(Tensor(x.astype(w1.data.dtype)), w1), b1))
            return T.mean_all(T.sigmoid(T.matmul(h, w2)))

        err = grad_check(run, [w1, b1, w2], eps=1e-3, seed=0)
        assert err < 1e-2

    def test_row_sparse_table_f64(self):
        rng = np.random.default_rng(7)
        table = Parameter("emb", rng.standard_normal((6, 3)), dtype=np.float64)
        w = Parameter("w", rng.standard_normal((3, 1)), dtype=np.float64)
        ids = np.array([[4, 1, 4], [0, 4, 1]])

        def run():
            return T.mean_all(T.sigmoid(T.matmul(T.embedding_lookup(table, ids), w)))

        # every coordinate of the table, looked-up rows and untouched ones
        assert grad_check(run, [table, w], eps=1e-4, samples_per_param=table.size) < 1e-6

    def test_eps_validated(self):
        w = Parameter("w", np.ones(1))
        with pytest.raises(ValueError):
            grad_check(lambda: sum_all(w), [w], eps=0.0)
        with pytest.raises(ValueError):
            grad_check(lambda: sum_all(w), [w], eps=0.5)

    def test_restores_params(self):
        w = Parameter("w", np.array([2.0], dtype=np.float32))
        before = w.data.copy()
        grad_check(lambda: sum_all(T.mul(w, w)), [w], eps=1e-3)
        assert np.array_equal(w.data, before)
        assert w.data.dtype == np.float32


def random_graph(seed, sigmoid=T.sigmoid):
    # random tiny composite: linear -> relu -> linear -> sigmoid -> mean.
    # float64 so the check tests graph wiring, not float32 quantization
    # (coordinates with true grads near 1e-8 round to zero in float32)
    rng = np.random.default_rng(seed)
    n_in = int(rng.integers(2, 5))
    n_hid = int(rng.integers(2, 5))
    w1 = Parameter("w1", rng.standard_normal((n_in, n_hid)), dtype=np.float64)
    w2 = Parameter("w2", rng.standard_normal((n_hid, 1)), dtype=np.float64)
    x = rng.standard_normal((2, n_in))

    def run():
        h = T.relu(T.matmul(Tensor(x, dtype=np.float64), w1))
        return T.mean_all(sigmoid(T.matmul(h, w2)))

    return run, [w1, w2]


# 797, 1056, 1453 and 38532533 saturate the second sigmoid, so the true
# gradients are ~1e-9 and the quotient's f64 rounding dominates; at 1987 a
# hidden pre-activation of -5.3e-5 lies within the 1e-4 probe (a relu kink)
@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1))
@example(797)
@example(1056)
@example(1453)
@example(1987)
@example(38532533)
def test_gradient_property_random_graphs(seed):
    run, params = random_graph(seed)
    err = grad_check(run, params, eps=1e-4, samples_per_param=4, seed=seed)
    assert err < 1e-5


def test_grad_check_flags_a_wrong_sigmoid_gradient():
    def sigmoid_grad_times_1_5(x):
        out = 1.0 / (1.0 + np.exp(-x.data))
        return T._emit(out, (x,), lambda g: (1.5 * g * out * (1.0 - out),))

    missed = []
    for seed in range(200):
        run, params = random_graph(seed, sigmoid_grad_times_1_5)
        if grad_check(run, params, eps=1e-4, samples_per_param=4, seed=seed) >= 1e-5:
            continue
        run, params = random_graph(seed)
        with Tape() as tape:
            loss = run()
        backward(tape, loss)
        if any(np.any(p.grad.data) for p in params):  # a zero gradient hides any factor
            missed.append(seed)
    assert missed == []


class TestPruning:
    """Ops that cannot reach a trainable parameter leave no tape entry."""

    def graph(self, trainable_w0):
        rng = np.random.default_rng(10)
        w0 = Parameter("w0", rng.standard_normal((4, 5)), trainable=trainable_w0)
        b0 = Parameter("b0", rng.standard_normal(5), trainable=trainable_w0)
        w1 = Parameter("w1", rng.standard_normal((5, 3)))
        x = rng.standard_normal((2, 6, 4)).astype(np.float32)
        with Tape() as tape:
            h = T.relu(T.add(T.matmul(Tensor(x), w0), b0))
            h = T.layer_norm(T.add(h, h), Tensor(np.ones(5)), Tensor(np.zeros(5)))
            loss = T.mean_all(T.sigmoid(T.matmul(h, w1)))
        entries = list(tape._entries)  # backward consumes them
        backward(tape, loss)
        return tape, entries, (w0, b0, w1)

    def test_frozen_inputs_leave_no_entry_and_same_gradients(self):
        full, _, (w0, b0, w1) = self.graph(True)
        pruned, _, (f0, fb0, p1) = self.graph(False)
        assert (len(pruned), len(full)) == (3, 8)  # the second matmul, sigmoid, mean
        assert f0.grad is None and fb0.grad is None
        assert np.array_equal(p1.grad.data, w1.grad.data)

    def test_no_entry_has_only_frozen_or_constant_inputs(self):
        _, entries, _ = self.graph(False)
        seen = set()
        for out, inputs, _ in entries:
            assert any(id(t) in seen or (isinstance(t, Parameter) and t.trainable)
                       for t in inputs)
            seen.add(id(out))

    def test_grad_fn_skips_unneeded_inputs(self):
        w = Parameter("w", np.ones((3, 2), dtype=np.float32))
        x = Tensor(np.ones((4, 3), dtype=np.float32))
        with Tape() as tape:
            T.matmul(x, w)
        (_, _, grad_fn), = tape._entries
        ga, gb = grad_fn(np.ones((4, 2), dtype=np.float32))
        assert ga is None and gb.shape == (3, 2)


def test_backward_consumes_the_tape():
    """Each entry is dropped once differentiated, so an activation nothing
    else holds is freed by the time ``backward`` returns; the tape still
    counts its entries and cannot be walked again."""
    w = Parameter("w", np.ones(3, dtype=np.float32))
    with Tape() as tape:
        hidden = T.mul(w, 2.0)
        loss = sum_all(T.mul(hidden, hidden))
    freed = weakref.ref(hidden.data)
    del hidden
    backward(tape, loss)
    assert freed() is None
    assert len(tape) == 3 and tape._entries == [None] * 3
    assert np.array_equal(w.grad.data, np.full(3, 8.0))
    with pytest.raises(GradientError, match="consumed"):
        backward(tape, loss)


def test_a_tape_walked_while_active_records_no_dead_ids():
    """``backward`` inside the ``with`` forgets the recorded outputs, whose
    ids a new tensor may reuse, and a second walk still raises."""
    w = Parameter("w", np.ones(3, dtype=np.float32))
    with Tape() as tape:
        hidden = T.mul(w, 2.0)
        loss = sum_all(hidden)
        backward(tape, loss)
        assert not tape.needs_grad(hidden)
        T.mul(Tensor(np.ones(3)), 2.0)
        assert len(tape) == 2
        with pytest.raises(GradientError, match="consumed"):
            backward(tape, loss)


def test_a_walk_that_raised_leaves_the_tape_spent():
    """A ``backward`` that fails partway has already dropped entries, so the
    next one raises ``GradientError``, not a ``TypeError`` on a dropped one."""
    def broken(g):
        raise ValueError("broken grad_fn")

    w = Parameter("w", np.ones(3, dtype=np.float32))
    with Tape() as tape:
        loss = sum_all(T.mul(w, 2.0))
    tape._entries[-1] = (loss, (w,), broken)
    with pytest.raises(ValueError, match="broken"):
        backward(tape, loss)
    with pytest.raises(GradientError, match="consumed"):
        backward(tape, loss)


def test_tape_is_thread_local_reentrant():
    w = Parameter("w", np.ones(2, dtype=np.float32))
    with Tape() as outer:
        T.mul(w, 2.0)
        with Tape() as inner:
            T.mul(w, 3.0)
        T.mul(w, 4.0)
    assert len(inner) == 1
    assert len(outer) == 2
