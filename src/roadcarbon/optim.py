"""Named parameters, initialization, Adam, and the finite-difference oracle."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .tensor import Tensor, backward, no_grad

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


@dataclass
class Parameter:
    """A trainable tensor with a unique path-style name, e.g. "community.rn.0.W"."""

    name: str
    tensor: Tensor

    @property
    def values(self) -> np.ndarray:
        return self.tensor.values

    @property
    def grad(self):
        return self.tensor.grad


def xavier_uniform(name: str, shape: tuple[int, int], rng: np.random.Generator) -> Parameter:
    fan_in, fan_out = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    values = rng.uniform(-limit, limit, size=shape)
    return Parameter(name, Tensor(values, requires_grad=True))


def zeros(name: str, shape: tuple[int, int]) -> Parameter:
    return Parameter(name, Tensor(np.zeros(shape), requires_grad=True))


def check_unique_names(params: list[Parameter]) -> None:
    seen = set()
    for p in params:
        if p.name in seen:
            raise ValueError(f"duplicate parameter name: {p.name}")
        seen.add(p.name)


class Adam:
    """Standard Adam with bias correction; one state slot per parameter name."""

    def __init__(self, params: list[Parameter], lr: float = 1e-3):
        check_unique_names(params)
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {p.name: np.zeros_like(p.values) for p in params}
        self.v = {p.name: np.zeros_like(p.values) for p in params}

    def step(self) -> None:
        """One Adam update from current grads; grads are left untouched."""
        for p in self.params:
            if p.tensor.grad is None:
                raise ValueError(f"adam step with missing grad for parameter {p.name}")
        self.t += 1
        for p in self.params:
            g = p.tensor.grad
            m = self.m[p.name]
            v = self.v[p.name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            m_hat = m / (1.0 - BETA1**self.t)
            v_hat = v / (1.0 - BETA2**self.t)
            p.tensor.values -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)

    def zero_grad(self) -> None:
        for p in self.params:
            p.tensor.grad = None


def finite_difference_check(
    f: Callable[[], Tensor],
    params: list[Parameter],
    h: float = 1e-5,
) -> float:
    """Compare analytic gradients of ``f()`` against central differences.

    ``f`` must be a deterministic zero-argument callable that rebuilds its
    compute graph and returns a scalar loss tensor.  Returns the max
    relative error over every coordinate of every parameter, with
    denominator max(|analytic|, |numeric|, 1e-8).  Parameters the loss never
    touches are checked against an all-zero gradient.
    """
    for p in params:
        p.tensor.grad = None
    loss = f()
    backward(loss)
    analytic = {
        p.name: (p.tensor.grad.copy() if p.tensor.grad is not None else np.zeros_like(p.values))
        for p in params
    }

    max_rel = 0.0
    with no_grad():
        for p in params:
            values = p.tensor.values
            flat = values.reshape(-1)
            grad_flat = analytic[p.name].reshape(-1)
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + h
                f_plus = f().values[0, 0]
                flat[i] = original - h
                f_minus = f().values[0, 0]
                flat[i] = original
                numeric = (f_plus - f_minus) / (2.0 * h)
                a = grad_flat[i]
                rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
                if rel > max_rel:
                    max_rel = rel
    for p in params:
        p.tensor.grad = None
    return max_rel
