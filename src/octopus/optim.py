"""Bias-corrected Adam with a constant learning rate."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor


@dataclass
class AdamState:
    """Per-parameter moments plus the shared step counter.

    The step counter increases by exactly 1 per `adam_step`; moment arrays
    always match the parameter shapes.
    """

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def init(cls, params: dict[str, Tensor], learning_rate: float) -> "AdamState":
        m = {k: np.zeros_like(p.data) for k, p in params.items()}
        v = {k: np.zeros_like(p.data) for k, p in params.items()}
        return cls(m=m, v=v, step=0, learning_rate=learning_rate)


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray], state: AdamState) -> AdamState:
    """Apply one bias-corrected Adam update in place.

    Parameters with no gradient entry are left untouched. Non-finite
    gradients are an error (they would poison the moments).
    """
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise ValueError(f"non-finite gradient for parameter {name!r}")
        if g.shape != params[name].data.shape:
            raise ValueError(f"gradient shape mismatch for parameter {name!r}")

    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for name, g in grads.items():
        p = params[name]
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        p.data -= (state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)).astype(
            p.data.dtype
        )
    return state
