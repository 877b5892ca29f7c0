"""Dense float64 tensors with reverse-mode automatic differentiation.

Implements exactly the primitive set the emission model's forward pass
needs.  All tensors are 2-D; broadcasting is limited to the column-vector
and scalar cases the model actually uses.  Gradients accumulate across
backward calls; the caller zeroes them between optimizer steps.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable compute-graph recording inside the block (values only)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _as_matrix(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    elif arr.ndim != 2:
        raise ValueError(f"tensors are 2-D, got shape {arr.shape}")
    return arr


class Tensor:
    """A 2-D float64 value buffer plus a node in the implicit compute graph.

    Scalars are 1x1, vectors are columns.  ``grad`` is lazily allocated on
    first accumulation and always matches ``values`` in shape.
    """

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward_fn", "_op")

    def __init__(self, values, requires_grad: bool = False):
        self.values = _as_matrix(values)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward_fn = None
        self._op = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ValueError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.values[0, 0])

    def detach(self) -> "Tensor":
        """A graph-free copy; backward through it reaches nothing."""
        return Tensor(self.values.copy())

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g.copy()  # copy: g may be a view into a child's grad
        else:
            self.grad += g

    def sum(self) -> "Tensor":
        return sum_all(self)

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}, op={self._op})"


def _result(values: np.ndarray, parents: tuple, backward_fn, op: str) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.values = values
    out.grad = None
    record = False
    if _GRAD_ENABLED:
        for p in parents:
            if p.requires_grad:
                record = True
                break
    if record:
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
        out._op = op
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward_fn = None
        out._op = None
    return out


def _segment_sum_np(vals: np.ndarray, seg: np.ndarray, n_segments: int) -> np.ndarray:
    """Sum rows of ``vals`` by segment id; empty segments give zero rows."""
    out = np.zeros((n_segments, vals.shape[1]))
    if seg.size == 0:
        return out
    if vals.size < 4096:
        np.add.at(out, seg, vals)
        return out
    order = np.argsort(seg, kind="stable")
    sorted_seg = seg[order]
    sorted_vals = vals[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_seg)) + 1))
    out[sorted_seg[starts]] = np.add.reduceat(sorted_vals, starts, axis=0)
    return out


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out_values = a.values @ b.values

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate_grad(g @ b.values.T)
        if b.requires_grad:
            b.accumulate_grad(a.values.T @ g)

    return _result(out_values, (a, b), backward_fn, "matmul")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; ``b`` may also be one broadcast row (1xd) or a scalar (1x1)."""
    if b.shape == a.shape:
        mode = "same"
    elif b.shape == (1, a.shape[1]):
        mode = "row"
    elif b.shape == (1, 1):
        mode = "scalar"
    else:
        raise ValueError(f"add shape mismatch: {a.shape} + {b.shape}")
    out_values = a.values + b.values

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            if mode == "same":
                b.accumulate_grad(g)
            elif mode == "row":
                b.accumulate_grad(g.sum(axis=0, keepdims=True))
            else:
                b.accumulate_grad(g.sum().reshape(1, 1))

    return _result(out_values, (a, b), backward_fn, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product; ``b`` may also be a column (nx1) scaling a's rows, or a scalar."""
    if b.shape == a.shape:
        mode = "same"
    elif b.shape == (a.shape[0], 1):
        mode = "col"
    elif b.shape == (1, 1):
        mode = "scalar"
    else:
        raise ValueError(f"mul shape mismatch: {a.shape} * {b.shape}")
    out_values = a.values * b.values

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate_grad(g * b.values)
        if b.requires_grad:
            if mode == "same":
                b.accumulate_grad(g * a.values)
            elif mode == "col":
                b.accumulate_grad((g * a.values).sum(axis=1, keepdims=True))
            else:
                b.accumulate_grad((g * a.values).sum().reshape(1, 1))

    return _result(out_values, (a, b), backward_fn, "mul")


def scale(a: Tensor, c: float) -> Tensor:
    def backward_fn(g):
        if a.requires_grad:
            a.accumulate_grad(g * c)

    return _result(a.values * c, (a,), backward_fn, "scale")


def sum_all(a: Tensor) -> Tensor:
    def backward_fn(g):
        if a.requires_grad:
            a.accumulate_grad(np.full_like(a.values, g[0, 0]))

    return _result(a.values.sum().reshape(1, 1), (a,), backward_fn, "sum")


def hstack(tensors: list[Tensor]) -> Tensor:
    """Column-wise concatenation of tensors sharing the same row count."""
    if not tensors:
        raise ValueError("hstack of zero tensors")
    if len(tensors) == 1:
        return tensors[0]
    rows = tensors[0].shape[0]
    for t in tensors[1:]:
        if t.shape[0] != rows:
            raise ValueError(
                f"hstack row-count mismatch: {[t.shape for t in tensors]}"
            )
    widths = [t.shape[1] for t in tensors]
    offsets = np.cumsum([0] + widths)
    out_values = np.concatenate([t.values for t in tensors], axis=1)

    def backward_fn(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t.accumulate_grad(g[:, lo:hi])

    return _result(out_values, tuple(tensors), backward_fn, "hstack")


def vstack(tensors: list[Tensor]) -> Tensor:
    """Row-wise concatenation of tensors sharing the same column count."""
    if not tensors:
        raise ValueError("vstack of zero tensors")
    if len(tensors) == 1:
        return tensors[0]
    cols = tensors[0].shape[1]
    for t in tensors[1:]:
        if t.shape[1] != cols:
            raise ValueError(
                f"vstack column-count mismatch: {[t.shape for t in tensors]}"
            )
    heights = [t.shape[0] for t in tensors]
    offsets = np.cumsum([0] + heights)
    out_values = np.concatenate([t.values for t in tensors], axis=0)

    def backward_fn(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t.accumulate_grad(g[lo:hi])

    return _result(out_values, tuple(tensors), backward_fn, "vstack")


def gather_rows(x: Tensor, idx) -> Tensor:
    """Select rows of ``x`` by index, duplicates allowed; backward scatter-adds."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ValueError(f"gather_rows index out of range for {x.shape[0]} rows")
    out_values = x.values[idx]

    def backward_fn(g):
        if x.requires_grad:
            x.accumulate_grad(_segment_sum_np(g, idx, x.shape[0]))

    return _result(out_values, (x,), backward_fn, "gather_rows")


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    # derivative at exactly 0 is defined as 1
    positive = x.values >= 0
    out_values = np.where(positive, x.values, slope * x.values)

    def backward_fn(g):
        if x.requires_grad:
            x.accumulate_grad(g * np.where(positive, 1.0, slope))

    return _result(out_values, (x,), backward_fn, "leaky_relu")


def tanh(x: Tensor) -> Tensor:
    out_values = np.tanh(x.values)

    def backward_fn(g):
        if x.requires_grad:
            x.accumulate_grad(g * (1.0 - out_values * out_values))

    return _result(out_values, (x,), backward_fn, "tanh")


def segment_softmax(scores: Tensor, segment_of, n_segments: int) -> Tensor:
    """Softmax of an Ex1 score column taken independently within each segment.

    Uses max-subtraction for overflow safety.  Every segment id that appears
    must be < n_segments; ids that never appear simply yield no outputs.
    """
    if n_segments <= 0:
        raise ValueError("segment_softmax: empty segment id space")
    if scores.shape[1] != 1:
        raise ValueError(f"segment_softmax expects an Ex1 column, got {scores.shape}")
    seg = np.asarray(segment_of, dtype=np.int64)
    if seg.shape[0] != scores.shape[0]:
        raise ValueError("segment_softmax: one segment id per score required")
    if seg.size == 0:
        raise ValueError("segment_softmax: no scores to normalize")
    if seg.min() < 0 or seg.max() >= n_segments:
        raise ValueError(f"segment id out of range [0, {n_segments})")

    x = scores.values.ravel()
    seg_max = np.full(n_segments, -np.inf)
    np.maximum.at(seg_max, seg, x)
    exps = np.exp(x - seg_max[seg])
    denom = np.bincount(seg, weights=exps, minlength=n_segments)
    y = exps / denom[seg]
    out_values = y.reshape(-1, 1)

    def backward_fn(g):
        if scores.requires_grad:
            gflat = g.ravel()
            weighted = gflat * y
            inner = np.bincount(seg, weights=weighted, minlength=n_segments)
            scores.accumulate_grad((y * (gflat - inner[seg])).reshape(-1, 1))

    return _result(out_values, (scores,), backward_fn, "segment_softmax")


def segment_sum(values: Tensor, segment_of, n_segments: int) -> Tensor:
    """Row i of the output is the sum of input rows with segment id i."""
    seg = np.asarray(segment_of, dtype=np.int64)
    if seg.shape[0] != values.shape[0]:
        raise ValueError("segment_sum: one segment id per row required")
    if seg.size and (seg.min() < 0 or seg.max() >= n_segments):
        raise ValueError(f"segment id out of range [0, {n_segments})")
    out_values = _segment_sum_np(values.values, seg, n_segments)

    def backward_fn(g):
        if values.requires_grad:
            values.accumulate_grad(g[seg])

    return _result(out_values, (values,), backward_fn, "segment_sum")


def segment_max(values: Tensor, segment_of, n_segments: int) -> Tensor:
    """Per-segment column-wise max; empty segments give zero rows.

    Gradient routes to the first row attaining the maximum in each
    (segment, column) slot.
    """
    seg = np.asarray(segment_of, dtype=np.int64)
    if seg.shape[0] != values.shape[0]:
        raise ValueError("segment_max: one segment id per row required")
    if seg.size and (seg.min() < 0 or seg.max() >= n_segments):
        raise ValueError(f"segment id out of range [0, {n_segments})")
    d = values.shape[1]
    out_values = np.zeros((n_segments, d))
    argmax_rows = np.full((n_segments, d), -1, dtype=np.int64)
    for s in range(n_segments):
        members = np.flatnonzero(seg == s)
        if members.size == 0:
            continue
        block = values.values[members]
        winners = block.argmax(axis=0)
        out_values[s] = block[winners, np.arange(d)]
        argmax_rows[s] = members[winners]

    def backward_fn(g):
        if values.requires_grad:
            dx = np.zeros_like(values.values)
            rows = argmax_rows.ravel()
            cols = np.tile(np.arange(d), n_segments)
            mask = rows >= 0
            np.add.at(dx, (rows[mask], cols[mask]), g.ravel()[mask])
            values.accumulate_grad(dx)

    return _result(out_values, (values,), backward_fn, "segment_max")


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over an nx1 column of predictions."""
    if pred.shape != target.shape:
        raise ValueError(f"mse_loss shape mismatch: {pred.shape} vs {target.shape}")
    n = pred.shape[0]
    if n == 0:
        raise ValueError("mse_loss of zero samples")
    diff = pred.values - target.values
    out_values = np.array([[np.mean(diff * diff)]])

    def backward_fn(g):
        coeff = g[0, 0] * 2.0 / diff.size
        if pred.requires_grad:
            pred.accumulate_grad(coeff * diff)
        if target.requires_grad:
            target.accumulate_grad(-coeff * diff)

    return _result(out_values, (pred, target), backward_fn, "mse_loss")


# ---------------------------------------------------------------------------
# reverse pass


def toposort(root: Tensor) -> list[Tensor]:
    """Reverse-topological order of the recorded graph reachable from root.

    Each node appears exactly once; leaves (no recorded producer) are
    included so gradient checks can count visits.
    """
    topo: list[Tensor] = []
    visited = {id(root)}
    stack: list[tuple[Tensor, iter]] = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        advanced = False
        for p in parents:
            if id(p) not in visited:
                visited.add(id(p))
                stack.append((p, iter(p._parents)))
                advanced = True
                break
        if not advanced:
            topo.append(node)
            stack.pop()
    return topo


def backward(loss: Tensor) -> None:
    """Populate grads of every reachable requires_grad tensor.

    Grads accumulate on top of whatever is already stored; callers zero
    them between optimizer steps.
    """
    if loss.shape != (1, 1):
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    order = toposort(loss)
    loss.accumulate_grad(np.ones((1, 1)))
    for node in reversed(order):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)
