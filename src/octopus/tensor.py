"""Dense tensors with reverse-mode automatic differentiation on numpy.

Float32 is the training precision. Pass dtype=np.float64 when building
parameters for finite-difference gradient checks. Ops take their Tensor
operands as they are and never cast them, so a result has its inputs'
dtype; only `add` and `mul` take a scalar or array second operand, as a
constant of the first operand's dtype.
"""

from __future__ import annotations

import contextlib
from types import SimpleNamespace

import numpy as np

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """Row-major numeric array carrying an optional gradient trace.

    Tensors produced by operations are never mutated; only `grad` is
    written, by `backward` and `zero_grad`. An op result that requires grad
    has a `_Node` in the backward graph; a leaf that requires grad is its
    own node.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float32):
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = self._node = None

    @property
    def _vjp(self):
        """The vjp of this op result's node, None for a leaf; the benchmark's
        trace reads and replaces it to time each backward op."""
        return None if self._node is None else self._node.vjp

    @_vjp.setter
    def _vjp(self, vjp):
        self._node.vjp = vjp

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        self.grad = None

    def backward(self):
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # operator sugar; the module-level functions carry the real contracts
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def sum(self):
        return tensor_sum(self)


def _as_tensor(x, like: Tensor) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, dtype=like.data.dtype)


class _Node:
    """The backward record of an op result: its parents' nodes (None where
    no gradient flows) and its vjp, which keeps only the arrays it reads.
    No node holds its own result, so an op output that no vjp reads is
    freed as soon as the forward drops it."""

    __slots__ = ("parents", "vjp")

    def __init__(self, parents: tuple, vjp):
        self.parents, self.vjp = parents, vjp


def _node_of(t: Tensor):
    """The graph node of t: its _Node, itself for a leaf that requires grad, else None."""
    return t._node or (t if t.requires_grad else None)


def _make(data: np.ndarray, parents: tuple, vjp) -> Tensor:
    """Build an op result, recording the trace only when it can matter."""
    out = Tensor.__new__(Tensor)
    out.data, out.grad, out._node = data, None, None
    nodes = tuple(map(_node_of, parents))
    out.requires_grad = _grad_enabled and any(n is not None for n in nodes)
    if out.requires_grad:
        out._node = _Node(nodes, vjp)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to `shape` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    data = a.data + b.data
    sa, sb = a.data.shape, b.data.shape

    def vjp(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _make(data, (a, b), vjp)


def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    data = a.data * b.data

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _make(data, (a, b), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes, leading axes broadcast.

    Raises ValueError when the inner dimensions disagree.
    """
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul expects tensors with ndim >= 2")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul dimension mismatch: {a.data.shape} x {b.data.shape}")
    data = np.matmul(a.data, b.data)

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

    return _make(data, (a, b), vjp)


def reshape(x: Tensor, shape) -> Tensor:
    old = x.data.shape
    return _make(x.data.reshape(shape), (x,), lambda g: (g.reshape(old),))


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    data = x.data.transpose(axes)

    def vjp(g):
        # the inverse permutation is only needed here; inference never pays for it
        return (g.transpose(np.argsort(axes)),)

    return _make(data, (x,), vjp)


def take(x: Tensor, indices, axis: int = 0) -> Tensor:
    """Gather along axis 0 or 1; the gradient scatter-adds back."""
    at = (slice(None),) * axis + (np.asarray(indices),)
    shape, dtype = x.data.shape, x.data.dtype

    def vjp(g):
        gx = np.zeros(shape, dtype)
        np.add.at(gx, at, g)
        return (gx,)

    return _make(x.data[at], (x,), vjp)


def relu(x: Tensor) -> Tensor:
    keep = x.data > 0
    return _make(np.maximum(x.data, 0), (x,), lambda g: (g * keep,))


def _drop(x: np.ndarray, rate: float, keep: np.ndarray | None = None,
          rng: np.random.Generator | None = None):
    """Inverted dropout of an array: (x * keep * 65536 / (65536 - t), keep)
    with t = round(rate * 65536), never 65536. Unless given, the bool keep
    mask is word >= t over 16-bit words of rng's raw 64-bit outputs, low
    word first: a quarter of the draws of one float per element."""
    t = min(round(rate * 65536), 65535)
    if keep is None:
        words = rng.bit_generator.random_raw(-(-x.size // 4)).astype("<u8", copy=False)
        keep = (words.view("<u2")[:x.size] >= t).reshape(x.shape)
    return x * keep * x.dtype.type(65536 / (65536 - t)), keep


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout with a keep mask drawn from rng."""
    if rate <= 0.0:
        return x
    data, keep = _drop(x.data, rate, rng=rng)
    return _make(data, (x,), lambda g: (_drop(g, rate, keep)[0],))


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    m = x.max(axis=axis, keepdims=True)
    if (m == -np.inf).any():
        raise ValueError("softmax over a fully masked (all -inf) slice")
    e = np.exp(x - m)
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_vjp(g: np.ndarray, p: np.ndarray, axis: int) -> np.ndarray:
    dot = (g * p).sum(axis=axis, keepdims=True)
    return p * (g - dot)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted softmax along `axis`.

    -inf entries are allowed (masked positions); a row of all -inf is an
    error since it signals a fully masked attention position.
    """
    p = _softmax(x.data, axis)
    return _make(p, (x,), lambda g: (_softmax_vjp(g, p, axis),))


def _split(x: np.ndarray, heads: int) -> np.ndarray:
    """(B, L, d) -> (B, heads, L, d // heads), a view; unlike -1, it splits B = 0."""
    return x.reshape(*x.shape[:2], heads, x.shape[2] // heads).transpose(0, 2, 1, 3)


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int, scale: float, bias=None,
            mask_add=None, rate: float = 0.0, rng: np.random.Generator | None = None):
    """The array forward of `attention`: (output, attention weights before
    dropout, bool keep mask or None)."""
    dt, shape = q.dtype, q.shape
    q, k, v = (_split(x, heads) for x in (q, k, v))
    scores = np.matmul(q * dt.type(scale), k.swapaxes(-1, -2))
    if bias is not None:
        scores += bias
    if mask_add is not None:
        scores += np.asarray(mask_add, dtype=dt)
    p = _softmax(scores, -1)
    w, keep = _drop(p, rate, rng=rng) if rate > 0.0 else (p, None)
    return np.matmul(w, v).transpose(0, 2, 1, 3).reshape(shape), p, keep


def attention(q, k, v, heads: int, scale: float, bias=None, mask_add=None,
              rate: float = 0.0, rng: np.random.Generator | None = None) -> Tensor:
    """Multi-head softmax(q*scale @ kᵀ + bias + mask_add) @ v, with inverted
    dropout of the attention weights when rate > 0, as one graph node.

    q (B, Lq, d), k and v (B, Lk, d) are split into `heads` heads, which the
    (B, Lq, d) result joins back. bias (a Tensor, differentiable) and
    mask_add (an array of 0/-inf, not differentiable) broadcast against the
    (B, heads, Lq, Lk) scores. The float ops are those of the composed
    reshape/transpose/mul/matmul/add/softmax/dropout/matmul path, in the same
    order and drawing the dropout mask from rng at the same point, so outputs
    and gradients equal it bit for bit; the vjp keeps only the attention
    weights and a bool keep mask, not that path's six score-sized arrays.
    """
    parents = (q, k, v) if bias is None else (q, k, v, bias)
    arrays = q.data, k.data, v.data
    bias_shape = None if bias is None else bias.data.shape
    out, p, keep = _attend(*arrays, heads, scale, None if bias is None else bias.data,
                           mask_add, rate, rng)

    def vjp(g):
        s = arrays[0].dtype.type(scale)
        qh, kh, vh, g = (_split(x, heads) for x in (*arrays, g))
        w = p if keep is None else _drop(p, rate, keep)[0]
        gw = np.matmul(g, np.swapaxes(vh, -1, -2))
        gv = np.matmul(np.swapaxes(w, -1, -2), g)
        if keep is not None:
            gw = _drop(gw, rate, keep)[0]
        gs = _softmax_vjp(gw, p, -1)
        gq = np.matmul(gs, kh) * s
        gk = np.swapaxes(np.matmul(np.swapaxes(qh * s, -1, -2), gs), -1, -2)
        grads = tuple(gx.transpose(0, 2, 1, 3).reshape(x.shape)
                      for gx, x in zip((gq, gk, gv), arrays))
        return grads if bias_shape is None else grads + (_unbroadcast(gs, bias_shape),)

    return _make(out, parents, vjp)


def _rms_norm(x: np.ndarray, gain: np.ndarray, eps: float = 1e-6):
    """The array forward of `rms_norm`: (output, 1/rms)."""
    ms = (x * x).sum(axis=-1, keepdims=True) / x.shape[-1]
    inv = 1.0 / np.sqrt(ms + eps)
    return x * inv * gain, inv


def rms_norm(x: Tensor, gain: Tensor, eps: float = 1e-6) -> Tensor:
    """y_i = gain_i * x_i / sqrt(mean(x^2) + eps), over the last axis."""
    if gain.data.shape != x.data.shape[-1:]:
        raise ValueError(
            f"rms_norm gain shape {gain.data.shape} does not match last axis of {x.data.shape}"
        )
    xd, gd, n = x.data, gain.data, x.data.shape[-1]
    data, inv = _rms_norm(xd, gd, eps)

    def vjp(g):
        u = g * gd
        dot = (u * xd).sum(axis=-1, keepdims=True)
        gx = inv * u - xd * (inv**3) * (dot / n)
        ggain = (g * (xd * inv)).reshape(-1, n).sum(axis=0)  # x/rms again, not kept
        return gx, ggain

    return _make(data, (x, gain), vjp)


def tensor_sum(x: Tensor) -> Tensor:
    """The sum of every element, a scalar."""
    shape, dtype = x.data.shape, x.data.dtype
    return _make(np.asarray(x.data.sum()), (x,),
                 lambda g: (np.broadcast_to(g, shape).astype(dtype),))


def cross_entropy(logits: Tensor, targets, ignore_id: int = -100) -> Tensor:
    """Mean negative log-softmax probability of `targets`.

    logits: (n, V). targets: n ids, each in [0, V) or equal to ignore_id.
    Raises when every position is ignored or a target id is out of range.
    """
    if logits.data.ndim != 2:
        raise ValueError("cross_entropy expects logits of shape (n, V)")
    t = np.asarray(targets, dtype=np.int64)
    if t.shape != (logits.data.shape[0],):
        raise ValueError("targets must be a vector matching the logit rows")
    keep = t != ignore_id
    n_kept = int(keep.sum())
    if n_kept == 0:
        raise ValueError("cross_entropy: all positions ignored")
    v = logits.data.shape[1]
    if ((t[keep] < 0) | (t[keep] >= v)).any():
        raise ValueError("cross_entropy: target id out of range")

    m = logits.data.max(axis=1, keepdims=True)
    e = np.exp(logits.data - m)
    z = e.sum(axis=1, keepdims=True)
    logp = logits.data - m - np.log(z)
    rows = np.arange(t.shape[0])
    safe_t = np.where(keep, t, 0)
    nll = -logp[rows, safe_t]
    loss = (nll * keep).sum() / n_kept

    def vjp(g):
        p = e / z
        grad = p.copy()
        grad[rows, safe_t] -= 1.0
        grad *= (keep / n_kept)[:, None]
        return (grad * g,)

    return _make(np.asarray(loss, dtype=logits.data.dtype), (logits,), vjp)


# The forwards of the ops above on plain arrays, under the same names and
# signatures: the op set of a forward that builds no graph (cached decoding).
array_ops = SimpleNamespace(
    add=np.add, mul=np.multiply, matmul=np.matmul, relu=lambda x: np.maximum(x, 0),
    transpose=lambda x, axes: x.transpose(axes),
    take=lambda x, indices, axis=0: np.take(x, indices, axis),
    rms_norm=lambda x, gain: _rms_norm(x, gain)[0], attention=lambda *args: _attend(*args)[0])


def _freed(g):
    raise RuntimeError("backward through a graph that an earlier backward already freed")


def backward(loss: Tensor):
    """Populate grads of every requires_grad leaf reachable from `loss`.

    The walk frees the graph as it goes: each node drops its parents and
    its vjp (with the arrays it kept) once the vjp has run, so call backward
    once per graph; walking a freed part again raises RuntimeError.
    Gradients of leaves accumulate into `grad` across graphs until zero_grad.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.data.shape != ():
        raise ValueError("backward requires a scalar loss")
    root = _node_of(loss)
    if root is None:
        return

    # iterative reverse topological order (graphs can be deep at decode time)
    topo: list[_Node | Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[_Node | Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        if type(node) is _Node:
            stack.extend((p, False) for p in node.parents if p is not None and id(p) not in visited)

    grads: dict[int, np.ndarray] = {id(root): np.ones((), dtype=loss.data.dtype)}
    while topo:
        # popping drops the list's reference, so a node dies once its consumers have run
        node = topo.pop()
        g = grads.pop(id(node), None)
        if type(node) is not _Node:  # a leaf
            if g is not None:
                node.grad = (np.array(g, dtype=node.data.dtype, copy=True)
                             if node.grad is None else node.grad + g)
            continue
        vjp, parents = node.vjp, node.parents
        node.vjp, node.parents = _freed, ()
        if g is None:
            continue
        for parent, pg in zip(parents, vjp(g)):
            if parent is None or pg is None:
                continue
            key = id(parent)
            grads[key] = grads[key] + pg if key in grads else pg
