import math
import weakref

import numpy as np
import pytest

from octopus import Tensor, backward, cross_entropy, matmul, rms_norm, softmax
from octopus import tensor as T
from octopus.optim import AdamState, adam_step

from helpers import finite_difference_grads, max_rel_error, refcount_only


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(matmul(eye, a).data, a.data)


def test_matmul_hand_case():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(matmul(a, b).data, [[2.0, 1.0], [4.0, 3.0]])


def test_matmul_annihilator():
    z = Tensor(np.zeros((2, 2)))
    a = Tensor(np.arange(4.0).reshape(2, 2))
    assert np.array_equal(matmul(z, a).data, np.zeros((2, 2)))


def test_matmul_shape_error():
    with pytest.raises(ValueError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_matmul_associativity_float32():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = Tensor(rng.standard_normal((4, 5)).astype(np.float32))
        b = Tensor(rng.standard_normal((5, 3)).astype(np.float32))
        c = Tensor(rng.standard_normal((3, 6)).astype(np.float32))
        left = matmul(matmul(a, b), c).data
        right = matmul(a, matmul(b, c)).data
        assert np.allclose(left, right, atol=1e-5, rtol=1e-5)


def test_softmax_uniform():
    out = softmax(Tensor([0.0, 0.0, 0.0])).data
    assert np.allclose(out, [1 / 3] * 3, atol=1e-6)


def test_softmax_closed_form():
    out = softmax(Tensor([0.0, math.log(2.0)])).data
    assert np.allclose(out, [1 / 3, 2 / 3], atol=1e-6)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(7)
    a = softmax(Tensor(x)).data
    b = softmax(Tensor(x + 13.5)).data
    assert np.allclose(a, b, atol=1e-6)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((5, 9)))
    p = softmax(x, axis=-1).data
    assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-6)
    assert (p >= 0).all() and (p <= 1).all()


def test_softmax_all_masked_row_errors():
    with pytest.raises(ValueError):
        softmax(Tensor([-np.inf, -np.inf]))


def test_rms_norm_constant_vector():
    out = rms_norm(Tensor([2.0, 2.0, 2.0], dtype=np.float64), Tensor([1.0, 1.0, 1.0], dtype=np.float64))
    assert np.allclose(out.data, [1.0, 1.0, 1.0], atol=1e-5)


def test_rms_norm_unit_rms_fixpoint():
    x = np.array([1.0, -1.0, 1.0, -1.0])  # rms exactly 1
    out = rms_norm(Tensor(x, dtype=np.float64), Tensor(np.ones(4), dtype=np.float64), eps=1e-12)
    assert np.allclose(out.data, x, atol=1e-6)


def test_rms_norm_zero_gain():
    out = rms_norm(Tensor([1.0, 2.0, 3.0]), Tensor([0.0, 0.0, 0.0]))
    assert np.array_equal(out.data, np.zeros(3))


def test_cross_entropy_uniform_is_log_v():
    logits = Tensor(np.zeros((3, 8)))
    loss = cross_entropy(logits, [0, 3, 7])
    assert np.isclose(float(loss.data), math.log(8), atol=1e-6)


def test_cross_entropy_perfect_prediction_limit():
    logits = np.full((1, 4), -100.0)
    logits[0, 2] = 100.0
    loss = cross_entropy(Tensor(logits), [2])
    assert float(loss.data) < 1e-6


def test_cross_entropy_closed_form():
    loss = cross_entropy(Tensor([[0.0, math.log(3.0)]], dtype=np.float64), [0])
    assert np.isclose(float(loss.data), math.log(4.0), atol=1e-9)


def test_cross_entropy_all_ignored_errors():
    with pytest.raises(ValueError):
        cross_entropy(Tensor(np.zeros((2, 4))), [9, 9], ignore_id=9)


def test_cross_entropy_target_out_of_range():
    with pytest.raises(ValueError):
        cross_entropy(Tensor(np.zeros((1, 4))), [4])


def test_backward_polynomial():
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    (x * x).sum().backward()
    assert np.allclose(x.grad, 2 * x.data)


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError):
        backward(x * x)


def test_backward_accumulates_until_reset():
    x = Tensor([2.0], requires_grad=True)
    (x * x).sum().backward()
    first = x.grad.copy()
    (x * x).sum().backward()
    assert np.allclose(x.grad, 2 * first)
    x.zero_grad()
    (x * x).sum().backward()
    assert np.allclose(x.grad, first)


def test_softmax_cross_entropy_grad_identity():
    # composite gradient is softmax(logits) - onehot(target), per position
    rng = np.random.default_rng(3)
    logits = Tensor(rng.standard_normal((4, 6)), requires_grad=True, dtype=np.float64)
    targets = [1, 0, 5, 2]
    cross_entropy(logits, targets).backward()
    p = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    expect = p.copy()
    for i, t in enumerate(targets):
        expect[i, t] -= 1.0
    expect /= len(targets)
    assert np.allclose(logits.grad, expect, atol=1e-9)


@pytest.mark.parametrize("op_name", ["matmul", "softmax", "rms_norm", "take", "take_axis1", "relu",
                                     "add_mul"])
def test_ops_match_finite_differences(op_name):
    rng = np.random.default_rng(hash(op_name) % 2**31)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True, dtype=np.float64)

    if op_name == "matmul":
        w = Tensor(rng.standard_normal((4, 5)), dtype=np.float64)
        loss_fn = lambda: float((matmul(Tensor(x.data, dtype=np.float64, requires_grad=False), w) * w.data.sum()).sum().data)
        out = (matmul(x, w) * w.data.sum()).sum()
    elif op_name == "softmax":
        loss_fn = lambda: float((softmax(Tensor(x.data, dtype=np.float64), axis=-1) * np.arange(4.0)).sum().data)
        out = (softmax(x, axis=-1) * np.arange(4.0)).sum()
    elif op_name == "rms_norm":
        gain = Tensor(rng.standard_normal(4), dtype=np.float64)
        loss_fn = lambda: float((rms_norm(Tensor(x.data, dtype=np.float64), gain) * 1.5).sum().data)
        out = (rms_norm(x, gain) * 1.5).sum()
    elif op_name == "take":
        idx = np.array([[0, 2], [1, 1]])
        loss_fn = lambda: float((T.take(Tensor(x.data, dtype=np.float64), idx) * 2.0).sum().data)
        out = (T.take(x, idx) * 2.0).sum()
    elif op_name == "take_axis1":  # (3, 4) -> (3, 3, 2), a repeated column and an unread one
        idx, w = np.array([[3, 0], [1, 3], [3, 3]]), np.arange(18.0).reshape(3, 3, 2)
        loss_fn = lambda: float((T.take(Tensor(x.data, dtype=np.float64), idx, 1) * w).sum().data)
        out = (T.take(x, idx, 1) * w).sum()
    elif op_name == "relu":
        loss_fn = lambda: float(T.relu(Tensor(x.data, dtype=np.float64)).sum().data)
        out = T.relu(x).sum()
    else:
        y = Tensor(rng.standard_normal((3, 4)), dtype=np.float64)
        loss_fn = lambda: float(((Tensor(x.data, dtype=np.float64) + y) * y).sum().data)
        out = ((x + y) * y).sum()

    out.backward()
    fd = finite_difference_grads(loss_fn, x.data)
    assert max_rel_error(x.grad, fd) < 1e-6


def test_no_nan_inf_on_finite_inputs():
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((6, 6)) * 10, requires_grad=True)
    gain = Tensor(np.ones(6))
    out = softmax(rms_norm(T.relu(x), gain), axis=-1).sum()
    out.backward()
    assert np.isfinite(out.data).all()
    assert np.isfinite(x.grad).all()


def test_adam_zero_gradient_keeps_params():
    p = {"w": Tensor([1.0, 2.0], requires_grad=True)}
    state = AdamState.init(p, learning_rate=0.1)
    adam_step(p, {"w": np.zeros(2, dtype=np.float32)}, state)
    assert np.array_equal(p["w"].data, [1.0, 2.0])
    assert state.step == 1


def test_adam_first_step_matches_bias_correction():
    # with g=1 everywhere, bias correction gives m_hat = v_hat = 1, so the
    # update is -lr / (1 + eps) which is -0.1 up to eps
    p = {"w": Tensor(np.zeros(3), requires_grad=True)}
    state = AdamState.init(p, learning_rate=0.1)
    adam_step(p, {"w": np.ones(3, dtype=np.float32)}, state)
    assert np.allclose(p["w"].data, -0.1, atol=1e-6)


def test_adam_first_step_descends():
    rng = np.random.default_rng(5)
    g = rng.standard_normal(8).astype(np.float32)
    g[np.abs(g) < 0.1] = 0.5
    p = {"w": Tensor(np.zeros(8), requires_grad=True)}
    state = AdamState.init(p, learning_rate=0.01)
    adam_step(p, {"w": g}, state)
    assert (np.sign(p["w"].data) == -np.sign(g)).all()


def test_adam_rejects_non_finite_grads():
    p = {"w": Tensor([1.0], requires_grad=True)}
    state = AdamState.init(p, learning_rate=0.1)
    with pytest.raises(ValueError):
        adam_step(p, {"w": np.array([np.nan], dtype=np.float32)}, state)


# ---- fused attention and graph freeing ----

def _attention_inputs(rng, dtype, mask_kind):
    b, h, lq, lk, dh = 2, 2, 4, 4, 3
    q, k, v = (Tensor(rng.standard_normal((b, n, h * dh)), requires_grad=True, dtype=dtype)
               for n in (lq, lk, lk))
    bias = Tensor(rng.standard_normal((1, h, lq, lk)), requires_grad=True, dtype=dtype)
    if mask_kind == "key":  # the second source's last key is padding
        mask = np.zeros((b, 1, 1, lk), dtype=dtype)
        mask[1, ..., -1] = -np.inf
    else:
        mask = np.triu(np.full((1, 1, lq, lk), -np.inf, dtype=dtype), k=1)
    return q, k, v, bias, mask


def _composed_attention(q, k, v, heads, scale, bias, mask, rate, rng):
    """The separate-op attention path, with a float 0/1 dropout mask drawn
    from rng's raw 16-bit words: split the heads, attend per head, merge
    the heads."""
    def split(x):
        b, n, d = x.shape
        return T.transpose(T.reshape(x, (b, n, heads, d // heads)), (0, 2, 1, 3))

    q, k, v = split(q), split(k), split(v)
    scores = T.matmul(T.mul(q, scale), T.transpose(k, (0, 1, 3, 2)))
    attn = T.softmax(T.add(T.add(scores, bias), Tensor(mask, dtype=q.dtype)), axis=-1)
    t, n = round(rate * 65536), attn.data.size
    words = rng.bit_generator.random_raw(-(-n // 4)).astype("<u8").view("<u2")
    keep = (words[:n].reshape(attn.shape) >= t).astype(q.dtype)
    attn = T.mul(T.mul(attn, Tensor(keep, dtype=q.dtype)), 65536 / (65536 - t))
    out = T.matmul(attn, v)
    b, _, lq, dh = out.shape
    return T.reshape(T.transpose(out, (0, 2, 1, 3)), (b, lq, heads * dh))


@pytest.mark.parametrize("mask_kind", ["key", "causal"])
def test_attention_matches_finite_differences(mask_kind):
    rng = np.random.default_rng(7)
    q, k, v, bias, mask = _attention_inputs(rng, np.float64, mask_kind)
    weights = rng.standard_normal((2, 4, 6))

    def loss_of(*xs):
        out = T.attention(*xs[:3], 2, 0.5, xs[3], mask, rate=0.3, rng=np.random.default_rng(5))
        return (out * weights).sum()

    loss_of(q, k, v, bias).backward()
    constants = [Tensor(x.data, dtype=np.float64) for x in (q, k, v, bias)]  # share the arrays
    for x in (q, k, v, bias):
        fd = finite_difference_grads(lambda: float(loss_of(*constants).data), x.data)
        assert max_rel_error(x.grad, fd) < 1e-6


@pytest.mark.parametrize("mask_kind", ["key", "causal"])
@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_attention_equals_composed_ops_bit_for_bit(mask_kind, rate):
    rng = np.random.default_rng(8)
    inputs = _attention_inputs(rng, np.float32, mask_kind)
    g = rng.standard_normal((2, 4, 6)).astype(np.float32)
    runs = []
    for fused in (True, False):
        q, k, v, bias = (Tensor(x.data, requires_grad=True) for x in inputs[:4])
        drop = np.random.default_rng(5)
        if fused:
            out = T.attention(q, k, v, 2, 1.0 / math.sqrt(3), bias, inputs[4], rate, drop)
        else:
            out = _composed_attention(q, k, v, 2, 1.0 / math.sqrt(3), bias, inputs[4], rate, drop)
        (out * g).sum().backward()
        runs.append([out.data] + [x.grad for x in (q, k, v, bias)])
    for a, b in zip(*runs):
        assert a.dtype == b.dtype == np.float32
        assert np.array_equal(a, b)


def test_attention_fully_masked_row_errors():
    q = k = v = Tensor(np.ones((1, 2, 2)))
    mask = np.full((1, 1, 1, 2), -np.inf, dtype=np.float32)
    with pytest.raises(ValueError, match="fully masked"):
        T.attention(q, k, v, 1, 1.0, mask_add=mask)


def test_backward_frees_the_graph():
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    shared = x * 3.0
    h = T.relu(shared)
    ref = weakref.ref(h.data)
    loss = (h * h).sum()
    other = (shared * 2.0).sum()  # a second loss sharing a subgraph of the first
    del shared, h
    assert ref() is not None
    loss.backward()
    assert ref() is None
    assert np.allclose(x.grad, [18.0, 0.0, 54.0])
    with pytest.raises(RuntimeError):
        loss.backward()
    with pytest.raises(RuntimeError):
        other.backward()


def test_op_outputs_that_no_vjp_reads_die_with_the_forward():
    # relu keeps its bool mask, not its input, and add keeps only shapes, so
    # the graph of `loss` holds none of these three outputs
    with refcount_only():
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        pre = x * 3.0
        h = T.relu(pre)
        residual = h + x
        refs = [weakref.ref(t.data) for t in (pre, h, residual)]
        loss = (residual + x).sum()
        del pre, h, residual
        assert all(ref() is None for ref in refs)
        loss.backward()
    assert np.allclose(x.grad, [5.0, 2.0, 5.0])


# ---- the dropout mask: 16-bit words of the generator's raw outputs ----

@pytest.mark.parametrize("rate", [0.1, 0.3, 0.5, 0.9])
def test_dropout_keep_share_within_binomial_bound(rate):
    n, t = 400_000, round(rate * 65536)
    _, keep = T._drop(np.ones(n, dtype=np.float32), rate, rng=np.random.default_rng(11))
    p = (65536 - t) / 65536
    assert abs(keep.mean() - p) < 5 * math.sqrt(p * (1 - p) / n)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rate", [0.1, 0.3])
def test_dropout_scales_kept_entries_by_words_over_kept_words(dtype, rate):
    x = np.ones((3, 50, 7), dtype=dtype)
    out, keep = T._drop(x, rate, rng=np.random.default_rng(2))
    t = round(rate * 65536)
    assert out.dtype == dtype and keep.shape == x.shape and keep.dtype == bool
    assert (out[keep] == dtype(65536 / (65536 - t))).all() and (out[~keep] == 0).all()
    assert np.array_equal(T._drop(2 * x, rate, keep)[0], 2 * out)  # a given mask is reused


def test_dropout_same_rng_same_mask():
    x = np.ones((4, 33), dtype=np.float32)
    a = T._drop(x, 0.3, rng=np.random.default_rng(9))[1]
    b = T._drop(x, 0.3, rng=np.random.default_rng(9))[1]
    c = T._drop(x, 0.3, rng=np.random.default_rng(10))[1]
    assert np.array_equal(a, b) and not np.array_equal(a, c)


def test_dropout_rate_below_one_word_keeps_everything():
    # round(rate * 65536) == 0: every word passes, and the scale is exactly 1
    x = np.random.default_rng(0).standard_normal((5, 9)).astype(np.float32)
    out, keep = T._drop(x, 1e-6, rng=np.random.default_rng(1))
    assert keep.all() and np.array_equal(out, x)


def test_dropout_rate_just_below_one_is_finite():
    # round(rate * 65536) would be 65536: the threshold stops one word short
    x = np.ones(4000, dtype=np.float32)
    out, keep = T._drop(x, 1.0 - 1e-7, rng=np.random.default_rng(3))
    assert np.isfinite(out).all()
    assert (T._drop(x, 1.0 - 1e-7, np.ones(x.shape, dtype=bool))[0] == 65536).all()
    assert np.isfinite(T.dropout(Tensor(x), 1.0 - 1e-7, np.random.default_rng(3)).data).all()


def test_dropout_mask_word_order_golden():
    # default_rng(0)'s first raw outputs are 0xa30febcfd9c2825f, 0x4510bdf882d9d721;
    # each one gives four 16-bit words, low word first, read in C order
    raw = np.random.default_rng(0).bit_generator.random_raw(2)
    words = [(int(r) >> s) & 0xFFFF for r in raw for s in (0, 16, 32, 48)]
    assert words == [33375, 55746, 60367, 41743, 55073, 33497, 48632, 17680]
    x = np.ones((2, 4), dtype=np.float32)
    keep = T._drop(x, 0.75, rng=np.random.default_rng(0))[1]  # t = 49152
    assert keep.astype(int).tolist() == [[0, 1, 1, 0], [1, 0, 0, 0]]
    keep = T._drop(x[0, :3], 0.75, rng=np.random.default_rng(0))[1]  # one raw output, part read
    assert keep.astype(int).tolist() == [0, 1, 1]
