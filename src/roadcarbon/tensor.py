"""Dense float64 tensors with reverse-mode automatic differentiation.

Implements the primitive set the emission model's forward pass and loss
use, and no more.  All tensors are 2-D; broadcasting is limited to the row
and scalar cases of ``add``.

A recorded graph is single-use.  ``backward`` frees it as it goes: once a
node has passed its gradient on to its parents, its gradient, backward
closure and parent links are dropped, so the inner values go as the pass
moves on and a training step holds its graph once, not twice.  Gradients
therefore accumulate on leaves only (parameters and other tensors made with
``requires_grad=True``), across as many graphs as the caller runs; the
caller zeroes them between optimizer steps.  A second ``backward`` through
a released graph raises ``ValueError``.

``arc_linear`` and ``attend`` are the two graph kernels.  ``arc_linear``
gives the rows ``[V[dst] | E | V[src]] @ M`` of a linear map applied to
every arc's (destination, arc, source) triple, computed from node-side
products ``V M_d`` and ``V M_s`` gathered per arc, so the arc-count triple
matrix is never formed.  ``attend`` is the one weighted sum of rows into
groups: row i is ``sum_a w[a] H[src[a]]`` over the arcs a into i, with no
arc-count matrix kept for backward.  Attention aggregation, sum and mean
pooling between hierarchy levels, and the per-node fusion of typed outputs
are all ``attend`` calls; ``segment_max`` is the max pooling and
``segment_softmax`` normalises scores within groups.

Every segment reduction uses one idiom: each (segment, column) cell of the
output is a flat slot, and a 1-D ``np.bincount`` or ``ufunc.at`` over the
slots reduces the input rows in input order.
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
    first accumulation and always matches ``values`` in shape; on a recorded
    (non-leaf) node, ``backward`` drops it once it has been passed on.
    """

    __slots__ = (
        "values", "grad", "requires_grad", "_parents", "_backward_fn", "_op", "__weakref__"
    )

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

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g.copy()  # copy: g may be a view into a child's grad
        else:
            self.grad += g

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


def _slots(seg: np.ndarray, d: int) -> np.ndarray:
    """Flat index of each (segment, column) cell of a row-major (segments, d) output."""
    return (seg[:, None] * d + np.arange(d)).ravel()


def _segment_sum_np(vals: np.ndarray, seg: np.ndarray, n_segments: int) -> np.ndarray:
    """Sum rows of ``vals`` by segment id; empty segments give zero rows.

    Always float64: ``np.bincount`` gives int64 for zero rows.
    """
    d = vals.shape[1]
    sums = np.bincount(_slots(seg, d), weights=vals.ravel(), minlength=n_segments * d)
    return sums.astype(np.float64, copy=False).reshape(n_segments, d)


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


def row_prefix(x: Tensor, k: int) -> Tensor:
    """The first ``k`` rows of ``x``; ``x`` itself when that is all of them.
    Backward pads the upstream rows with zero rows for the rest."""
    rows = x.shape[0]
    if not 0 <= k <= rows:
        raise ValueError(f"row_prefix: {k} rows of a {rows}-row tensor")
    if k == rows:
        return x

    def backward_fn(g):
        if x.requires_grad:
            full = np.zeros(x.shape)
            full[:k] = g
            x.accumulate_grad(full)

    return _result(x.values[:k], (x,), backward_fn, "row_prefix")


def arc_linear(V: Tensor, E: Tensor, src, dst, M: Tensor) -> Tensor:
    """Rows ``[V[dst] | E | V[src]] @ M``, one per arc, without the triple.

    ``M`` stacks the destination, arc and source row blocks (d_in, d_e and
    d_in rows).  ``E`` covers the first arcs; arcs past its rows (padded
    self-loops) have zero arc features, so their arc term vanishes.  The
    output is ``(V M_d)[dst] + (V M_s)[src]`` plus ``E M_e`` on E's rows;
    backward scatters the upstream rows to destination and source nodes
    once each, then takes node-count matmuls.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    n, d_in = V.shape
    m_e, d_e = E.shape
    if M.shape[0] != 2 * d_in + d_e:
        raise ValueError(
            f"arc_linear: M {M.shape} needs 2*{d_in} + {d_e} rows for nodes {V.shape} "
            f"and arcs {E.shape}"
        )
    if src.shape != dst.shape or src.ndim != 1:
        raise ValueError(f"arc_linear: src {src.shape} and dst {dst.shape} must be equal 1-D")
    if m_e > src.size:
        raise ValueError(f"arc_linear: arc features {E.shape} outnumber the {src.size} arcs")
    if src.size and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
        raise ValueError(f"arc_linear: arc endpoint out of range for {n} nodes")
    M_d, M_e, M_s = M.values[:d_in], M.values[d_in : d_in + d_e], M.values[d_in + d_e :]
    out_values = (V.values @ M_d)[dst] + (V.values @ M_s)[src]
    out_values[:m_e] += E.values @ M_e

    def backward_fn(g):
        g_arc = g[:m_e]
        if E.requires_grad:
            E.accumulate_grad(g_arc @ M_e.T)
        if V.requires_grad or M.requires_grad:
            g_dst = _segment_sum_np(g, dst, n)
            g_src = _segment_sum_np(g, src, n)
            if V.requires_grad:
                V.accumulate_grad(g_dst @ M_d.T + g_src @ M_s.T)
            if M.requires_grad:
                M.accumulate_grad(
                    np.concatenate(
                        [V.values.T @ g_dst, E.values.T @ g_arc, V.values.T @ g_src], axis=0
                    )
                )

    return _result(out_values, (V, E, M), backward_fn, "arc_linear")


def attend(H: Tensor, w: Tensor, src, dst, n: int) -> Tensor:
    """Row i is ``sum over arcs a with dst[a] == i of w[a] * H[src[a]]``.

    One arc-weighted gather-scatter: ``w`` is an (arcs x 1) column,
    ``src`` indexes H's rows and ``dst`` the n output rows; destinations
    without arcs give zero rows.  Backward gathers the upstream rows per arc
    and gathers ``H[src]`` again instead of keeping it from forward, so
    the node holds no arc-count matrix between the passes.  When ``src``
    lists H's rows in order, one arc per row (pooled members, fused
    inputs), ``H[src]`` is H itself: nothing is gathered, and H's gradient
    is the per-arc rows with no scatter.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    rows = H.shape[0]
    if src.shape != dst.shape or src.ndim != 1:
        raise ValueError(f"attend: src {src.shape} and dst {dst.shape} must be equal 1-D")
    if w.shape != (src.size, 1):
        raise ValueError(f"attend: weights {w.shape} must be a column of one row per arc ({src.size})")
    if n < 0:
        raise ValueError(f"attend: negative output row count {n}")
    if src.size and (src.min() < 0 or src.max() >= rows):
        raise ValueError(f"attend: arc source out of range for {rows} rows")
    if dst.size and (dst.min() < 0 or dst.max() >= n):
        raise ValueError(f"attend: arc destination out of range for {n} rows")
    identity = src.size == rows and np.array_equal(src, np.arange(rows))

    def sources():
        return H.values if identity else H.values[src]

    out_values = _segment_sum_np(sources() * w.values, dst, n)

    def backward_fn(g):
        gd = g[dst]
        if w.requires_grad:
            w.accumulate_grad((gd * sources()).sum(axis=1, keepdims=True))
        if H.requires_grad:
            g_src = gd * w.values
            H.accumulate_grad(g_src if identity else _segment_sum_np(g_src, src, rows))

    return _result(out_values, (H, w), backward_fn, "attend")


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


def segment_max(values: Tensor, segment_of, n_segments: int, src=None) -> Tensor:
    """Per-segment column-wise max of the rows ``values[src]``, row k going
    to segment ``segment_of[k]``; empty segments give zero rows.

    ``src`` defaults to every row in order.  As in ``attend``, rows listed
    in order are read in place; otherwise the gathered rows live through
    forward only, and backward scatter-adds to the source rows.  Gradient
    routes to the first gathered row attaining the maximum in each
    (segment, column) slot; a NaN counts as the maximum, as in ``argmax``.
    """
    rows, d = values.shape
    seg = np.asarray(segment_of, dtype=np.int64)
    src = np.arange(rows) if src is None else np.asarray(src, dtype=np.int64)
    if seg.shape != src.shape:
        raise ValueError("segment_max: one segment id per gathered row required")
    if seg.size and (seg.min() < 0 or seg.max() >= n_segments):
        raise ValueError(f"segment id out of range [0, {n_segments})")
    if src.size and (src.min() < 0 or src.max() >= rows):
        raise ValueError(f"segment_max: source row out of range for {rows} rows")
    identity = src.size == rows and np.array_equal(src, np.arange(rows))
    slots = _slots(seg, d)
    flat = (values.values if identity else values.values[src]).ravel()
    best = np.full(n_segments * d, -np.inf)
    np.maximum.at(best, slots, flat)
    # the first flat position attaining its slot's maximum; a NaN wins, as in argmax
    hit = np.flatnonzero((flat == best[slots]) | np.isnan(flat))
    winner = np.full(n_segments * d, flat.size)
    np.minimum.at(winner, slots[hit], hit)
    filled = winner < flat.size
    out_values = np.where(filled, best, 0.0).reshape(n_segments, d)

    def backward_fn(g):
        if values.requires_grad:
            dx = np.zeros((src.size, d))
            dx.ravel()[winner[filled]] = g.ravel()[filled]  # one winner per slot
            values.accumulate_grad(dx if identity else _segment_sum_np(dx, src, rows))

    return _result(out_values, (values,), backward_fn, "segment_max")


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over equally shaped predictions and targets."""
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
    """Populate grads of every reachable leaf and release the graph.

    Leaf grads accumulate on top of whatever is already stored; callers
    zero them between optimizer steps.  Each recorded node drops its grad,
    backward closure and parent links as soon as it has passed its gradient
    on, so the graph is spent when this returns; running ``backward``
    through any part of it again raises ``ValueError``.
    """
    if loss.shape != (1, 1):
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    order = toposort(loss)
    for node in order:
        if node._op is not None and node._backward_fn is None:
            raise ValueError(
                f"backward through a released graph (a {node._op} node was spent by an "
                f"earlier backward); rebuild the graph with a fresh forward pass"
            )
    loss.accumulate_grad(np.ones((1, 1)))
    while order:
        node = order.pop()
        if node._backward_fn is None:
            continue  # a leaf keeps its accumulated grad
        if node.grad is not None:
            node._backward_fn(node.grad)
        node.grad = None
        node._backward_fn = None
        node._parents = ()
