"""Dense tensors with reverse-mode automatic differentiation on numpy.

Float32 is the training precision. Pass dtype=np.float64 when building
parameters for finite-difference gradient checks; every op preserves the
dtype of its inputs.
"""

from __future__ import annotations

import contextlib

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
    written, by `backward` and `zero_grad`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        if dtype is None:
            dtype = np.float32
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._vjp = None

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

    def __radd__(self, other):
        return add(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None):
        return tensor_sum(self, axis)

    def reshape(self, shape):
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)


def _as_tensor(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else np.float32
    return Tensor(np.asarray(x, dtype=dtype))


def _make(data: np.ndarray, parents: tuple, vjp) -> Tensor:
    """Build an op result, recording the trace only when it can matter."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    requires = _grad_enabled and any(p.requires_grad for p in parents)
    out.requires_grad = requires
    if requires:
        out._parents = parents
        out._vjp = vjp
    else:
        out._parents = ()
        out._vjp = None
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


def add(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    data = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make(data, (a, b), vjp)


def mul(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    data = a.data * b.data

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _make(data, (a, b), vjp)


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes, leading axes broadcast.

    Raises ValueError when the inner dimensions disagree.
    """
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul expects tensors with ndim >= 2")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(
            f"matmul dimension mismatch: {a.data.shape} x {b.data.shape}"
        )
    data = np.matmul(a.data, b.data)

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

    return _make(data, (a, b), vjp)


def reshape(x: Tensor, shape) -> Tensor:
    x = _as_tensor(x)
    data = x.data.reshape(shape)

    def vjp(g):
        return (g.reshape(x.data.shape),)

    return _make(data, (x,), vjp)


def transpose(x: Tensor, axes) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(axes)
    data = x.data.transpose(axes)

    def vjp(g):
        # the inverse permutation is only needed here; inference never pays for it
        return (g.transpose(np.argsort(axes)),)

    return _make(data, (x,), vjp)


def take(x: Tensor, indices) -> Tensor:
    """Gather rows along axis 0; the gradient scatter-adds back."""
    x = _as_tensor(x)
    idx = np.asarray(indices)
    data = x.data[idx]

    def vjp(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx.reshape(-1), g.reshape(-1, *x.data.shape[1:]))
        return (gx,)

    return _make(data, (x,), vjp)


def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    data = np.maximum(x.data, 0)

    def vjp(g):
        return (g * (x.data > 0),)

    return _make(data, (x,), vjp)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout with a keep mask drawn from rng."""
    if rate <= 0.0:
        return x
    x = _as_tensor(x)
    keep = rng.random(x.data.shape) >= rate  # bool: a quarter of a float32 mask
    scale = 1.0 / (1.0 - rate)
    data = x.data * keep * x.data.dtype.type(scale)

    def vjp(g):
        return (g * keep * scale,)

    return _make(data, (x,), vjp)


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
    x = _as_tensor(x)
    p = _softmax(x.data, axis)
    return _make(p, (x,), lambda g: (_softmax_vjp(g, p, axis),))


def attention(q, k, v, scale: float, bias=None, mask_add=None,
              rate: float = 0.0, rng: np.random.Generator | None = None) -> Tensor:
    """softmax(q*scale @ kᵀ + bias + mask_add) @ v over the last two axes,
    with inverted dropout of the attention weights when rate > 0, as one
    graph node.

    bias (a Tensor, differentiable) and mask_add (an array of 0/-inf, not
    differentiable) broadcast against the (..., Lq, Lk) scores. The float
    ops are those of the composed mul/matmul/add/softmax/dropout/matmul
    path, in the same order and drawing the dropout mask from rng at the
    same point, so outputs and gradients equal it bit for bit; the vjp keeps
    only the attention weights and a bool keep mask instead of that path's
    six score-sized arrays.
    """
    q = _as_tensor(q)
    k, v = _as_tensor(k, like=q), _as_tensor(v, like=q)
    dt = q.data.dtype
    s = np.asarray(scale, dtype=dt)
    kt = np.swapaxes(k.data, -1, -2)
    scores = np.matmul(q.data * s, kt)
    parents = (q, k, v)
    if bias is not None:
        bias = _as_tensor(bias, like=q)
        parents += (bias,)
        scores += bias.data
    if mask_add is not None:
        scores += np.asarray(mask_add, dtype=dt)
    p = _softmax(scores, -1)
    keep = None
    if rate > 0.0:
        keep = rng.random(p.shape) >= rate
        drop_scale = 1.0 / (1.0 - rate)
    weights = p if keep is None else p * keep * dt.type(drop_scale)
    out = np.matmul(weights, v.data)

    def vjp(g):
        w = p if keep is None else p * keep * dt.type(drop_scale)
        gw = _unbroadcast(np.matmul(g, np.swapaxes(v.data, -1, -2)), p.shape)
        gv = _unbroadcast(np.matmul(np.swapaxes(w, -1, -2), g), v.data.shape)
        if keep is not None:
            gw = gw * keep * drop_scale
        gs = _softmax_vjp(gw, p, -1)
        gq = _unbroadcast(np.matmul(gs, k.data) * s, q.data.shape)
        gk = np.swapaxes(_unbroadcast(np.matmul(np.swapaxes(q.data * s, -1, -2), gs),
                                      kt.shape), -1, -2)
        grads = (gq, gk, gv)
        return grads if bias is None else grads + (_unbroadcast(gs, bias.data.shape),)

    return _make(out, parents, vjp)


def rms_norm(x: Tensor, gain: Tensor, eps: float = 1e-6) -> Tensor:
    """y_i = gain_i * x_i / sqrt(mean(x^2) + eps), over the last axis."""
    x = _as_tensor(x)
    gain = _as_tensor(gain, like=x)
    if gain.data.shape != x.data.shape[-1:]:
        raise ValueError(
            f"rms_norm gain shape {gain.data.shape} does not match last axis of {x.data.shape}"
        )
    n = x.data.shape[-1]
    ms = (x.data * x.data).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(ms + eps)
    normed = x.data * inv
    data = normed * gain.data

    def vjp(g):
        u = g * gain.data
        dot = (u * x.data).sum(axis=-1, keepdims=True)
        gx = inv * u - x.data * (inv**3) * (dot / n)
        ggain = (g * normed).reshape(-1, n).sum(axis=0)
        return gx, ggain

    return _make(data, (x, gain), vjp)


def tensor_sum(x: Tensor, axis=None) -> Tensor:
    x = _as_tensor(x)
    data = x.data.sum(axis=axis)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, x.data.shape).astype(x.data.dtype),)
        gg = np.expand_dims(g, axis)
        return (np.broadcast_to(gg, x.data.shape).astype(x.data.dtype),)

    return _make(np.asarray(data), (x,), vjp)


def cross_entropy(logits: Tensor, targets, ignore_id: int = -100) -> Tensor:
    """Mean negative log-softmax probability of `targets`.

    logits: (n, V). targets: n ids, each in [0, V) or equal to ignore_id.
    Raises when every position is ignored or a target id is out of range.
    """
    logits = _as_tensor(logits)
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


def _freed(g):
    raise RuntimeError("backward through a graph that an earlier backward already freed")


def backward(loss: Tensor):
    """Populate grads of every requires_grad leaf reachable from `loss`.

    The walk frees the graph as it goes: each op result drops its inputs
    and its saved state once its vjp has run, so call backward once per
    graph; walking a freed part again raises RuntimeError. Gradients of
    leaves accumulate into `grad` across graphs until zero_grad.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.data.shape != ():
        raise ValueError("backward requires a scalar loss")

    # iterative reverse topological order (graphs can be deep at decode time)
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.data.dtype)}
    while topo:
        # popping drops the list's reference, so a node dies once its consumers have run
        node = topo.pop()
        g = grads.pop(id(node), None)
        vjp, parents = node._vjp, node._parents
        if vjp is None:
            if g is not None and node.requires_grad:
                if node.grad is None:
                    node.grad = np.array(g, dtype=node.data.dtype, copy=True)
                else:
                    node.grad = node.grad + g
            continue
        node._vjp, node._parents = _freed, ()
        if g is None:
            continue
        for parent, pg in zip(parents, vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
