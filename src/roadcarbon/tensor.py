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
``segment_softmax`` normalises scores within groups.  There is no row
gather: the region level's ego union lists its rows in hop order, targets
first, so each region layer outputs a row prefix, ``row_prefix`` takes the
arc features a layer reads, and a gather elsewhere is ``attend`` with unit
weights.

The four graph kernels read their arcs from an ``Arcs`` value, which
converts and range-checks the endpoints and tests the identity case once
when it is built; a kernel call checks only that its tensors' shapes meet
the arcs.  A convolution stack builds its arc sets once and every layer's
kernels read them.

A segment sum takes one of two layouts, both adding each output row's
terms in arc order from +0.0, so they give the same bits.  Flat slots:
each (segment, column) cell of the output is a slot, and a 1-D
``np.bincount`` over an m x d slot index, built per call and dropped on
return, adds the per-arc rows.  Arc tables (ELLPACK): ``Arcs`` lists each
row's arcs in a padded (width, rows) table whose padding reads an appended
zero row, so a sum is one gather and one reduction over the table's
planes.  A table costs at most 2m int64, not m x d, so an arc set keeps it
for every layer and for backward.  ``attend`` and ``arc_linear`` sum
through a table when their rows are at least 2 wide and the arc set has
one; it has one unless it is small or skewed (``TABLE_MIN_ARCS``,
``TABLE_MAX_DEGREE``, ``TABLE_MAX_FILL``).  Width-1 columns (attention
scores) stay on flat slots: numpy sums a one-row, one-column table
pairwise, in another order.  ``segment_max`` and ``segment_softmax``
reduce by flat slots with ``ufunc.at`` and ``np.bincount``.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

_GRAD_ENABLED = True

LEAKY_SLOPE = 0.2  # the paper's slope for attention scores and the head

# A sum of width >= 2 over an arc set reads its padded arc table
# (``Arcs.into_rows``, ``Arcs.from_rows``) instead of the flat slots when the
# set has TABLE_MIN_ARCS arcs or more, no row has over TABLE_MAX_DEGREE arcs
# and the table has at most TABLE_MAX_FILL cells per arc.  Measured with one
# BLAS thread on a 2-core x86-64 machine, table time over flat-slot time:
# - arc count, at width 64: a 3-layer stack's sums over one looped arc set
#   (tables built once) took 1.09x at 59 arcs, 0.94x at 122, 0.84x at 496;
#   a one-use identity pooling 1.23x at 64 arcs, 1.04x at 128, 0.87x at 512.
#   At width 32 the stack broke even near 240 arcs and the pooling near 512.
# - fill, a 2,048-arc stack at width 64 with 8 rows of higher in-degree:
#   0.95x at 1.67 cells per arc, 1.05x at 2.33, 1.29x at 3.
# - in-degree: up to a 2,048-arc star, one-use pooling measured the same
#   either way, and large-regions epochs the same with and without the cap.
#   The sets over it are poolings built for one call, so the cap spares
#   them a table built for one use.
TABLE_MIN_ARCS = 512
TABLE_MAX_DEGREE = 32
TABLE_MAX_FILL = 2


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


def _padded(x: np.ndarray) -> np.ndarray:
    """``x`` with one zero row appended: the row an arc table's padding reads."""
    out = np.empty((x.shape[0] + 1,) + x.shape[1:])
    out[:-1] = x
    out[-1] = 0.0
    return out


def _gathered(x: np.ndarray, ends: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The rows ``x[ends[a]]`` of the arcs a in ``table``, in its layout,
    padding cells reading zero rows.  Pads x itself when it has no more
    rows than there are arcs, else the per-arc rows: the copy is the
    smaller of the two."""
    if x.shape[0] <= ends.size:
        return _padded(x)[np.append(ends, x.shape[0])[table]]
    return _padded(x[ends])[table]


def _table_sum(parts: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Row i is ``sum_k parts[k, i] * weights[k, i]`` (no product without
    weights), added up from +0.0 in ascending k, as ``np.bincount`` adds its
    slots.  The products are one ufunc and the sum another, so no
    multiply-add is fused, and the sum runs over the outermost axis: numpy
    adds whole (i, column) planes in k order, never pairwise, as long as a
    plane holds two or more numbers.  A one-row, one-column plane would be
    summed pairwise; no caller sends a width-1 input here."""
    if weights is not None:
        parts *= weights[:, :, None]
    return np.add.reduce(parts, axis=0, initial=0.0)


def _scatter(vals: np.ndarray, ends: np.ndarray, count: int, table: np.ndarray | None) -> np.ndarray:
    """The per-arc rows ``vals`` summed into ``count`` rows by ``ends``:
    through ``table``, the arc table of ``ends`` (of at most ``count``
    rows), when there is one, else by flat slots."""
    if table is None:
        return _segment_sum_np(vals, ends, count)
    sums = _table_sum(_padded(vals)[table])
    if table.shape[1] == count:
        return sums
    out = np.zeros((count, vals.shape[1]))
    out[: table.shape[1]] = sums
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


def _concat(tensors: list[Tensor], axis: int, op: str, kept: str) -> Tensor:
    """Concatenation along ``axis`` of tensors that agree on the other
    axis; ``kept`` names that axis in the mismatch error."""
    if not tensors:
        raise ValueError(f"{op} of zero tensors")
    if len(tensors) == 1:
        return tensors[0]
    if len({t.shape[1 - axis] for t in tensors}) > 1:
        raise ValueError(f"{op} {kept}-count mismatch: {[t.shape for t in tensors]}")
    splits = np.cumsum([t.shape[axis] for t in tensors[:-1]])
    out_values = np.concatenate([t.values for t in tensors], axis=axis)

    def backward_fn(g):
        for t, part in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t.accumulate_grad(part)

    return _result(out_values, tuple(tensors), backward_fn, op)


def hstack(tensors: list[Tensor]) -> Tensor:
    """Column-wise concatenation of tensors sharing the same row count."""
    return _concat(tensors, 1, "hstack", "row")


def vstack(tensors: list[Tensor]) -> Tensor:
    """Row-wise concatenation of tensors sharing the same column count."""
    return _concat(tensors, 0, "vstack", "column")


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


def _below(ids: np.ndarray, bound: int) -> bool:
    """Whether every int64 id lies in [0, bound), in one reduction: a
    negative id read as uint64 exceeds any bound."""
    return ids.size == 0 or ids.view(np.uint64).max() < bound


def _arc_table(ends: np.ndarray, count: int) -> np.ndarray | None:
    """The (width, count) table whose column r lists the arcs a with
    ``ends[a] == r`` in ascending order, padded with the arc count m; None
    when the flat-slot sum wins: under TABLE_MIN_ARCS arcs, a row with over
    TABLE_MAX_DEGREE arcs, or over TABLE_MAX_FILL cells per arc.  Row k of
    the table holds every row's k-th arc, so a sum over it adds whole
    planes."""
    m = ends.size
    if m < TABLE_MIN_ARCS:
        return None
    degree = np.bincount(ends, minlength=count)
    width = int(degree.max())
    if width > TABLE_MAX_DEGREE or count * width > TABLE_MAX_FILL * m:
        return None
    # a stable sort of 16-bit keys is a radix sort, 5-8x faster than on int64
    order = np.argsort(ends.astype(np.uint16) if count <= 1 << 16 else ends, kind="stable")
    row = ends[order]
    table = np.full((width, count), m)
    table[np.arange(m) - (np.cumsum(degree) - degree)[row], row] = order
    return table


class Arcs:
    """An arc set checked and converted once, then read by every kernel call.

    Arc a runs from source row ``src[a]``, one of ``rows``, into output row
    ``dst[a]``, one of ``n``; ``rows`` defaults to ``n``.  The constructor
    converts the endpoints to int64 and checks their shapes and ranges, so
    the kernels that take an ``Arcs`` check only the tensor shapes that meet
    it.  ``identity`` marks sources that list all ``rows`` rows in order,
    one arc per row, which ``attend`` and ``segment_max`` read in place.
    ``with_loops`` and ``prefix`` derive the arc sets a convolution stack
    reads without checking again.

    ``into_rows`` and ``from_rows`` are the padded arc tables (ELLPACK
    layout) of the output and the source rows, built on first use and kept:
    at most ``TABLE_MAX_FILL * m`` int64 each, against the m x d slot index
    a flat-slot sum builds per call and drops.  Each is None where the arc
    set is too small or too skewed for the table to win.
    """

    __slots__ = ("src", "dst", "m", "n", "rows", "identity", "_into", "_from")

    def __init__(self, src, dst, n: int, rows: int | None = None):
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        rows = n if rows is None else rows
        if src.shape != dst.shape or src.ndim != 1:
            raise ValueError(f"arcs: src {src.shape} and dst {dst.shape} must be equal 1-D")
        if n < 0 or rows < 0:
            raise ValueError(f"arcs: negative output row count {n} or source row count {rows}")
        if not _below(src, rows):
            raise ValueError(f"arcs: arc source out of range for {rows} rows")
        if not _below(dst, n):
            raise ValueError(f"arcs: arc destination out of range for {n} rows")
        self._set(src, dst, n, rows)

    def _set(self, src: np.ndarray, dst: np.ndarray, n: int, rows: int) -> None:
        self.src, self.dst, self.m, self.n, self.rows = src, dst, src.size, n, rows
        self.identity = src.size == rows and np.array_equal(src, np.arange(rows))
        self._into = self._from = False  # not built yet

    def into_rows(self) -> np.ndarray | None:
        """(width, n) arc ids by destination row, padded with m, or None."""
        if self._into is False:
            self._into = _arc_table(self.dst, self.n)
        return self._into

    def from_rows(self) -> np.ndarray | None:
        """(width, rows) arc ids by source row, padded with m, or None."""
        if self._from is False:
            self._from = _arc_table(self.src, self.rows)
        return self._from

    @staticmethod
    def _unchecked(src: np.ndarray, dst: np.ndarray, n: int, rows: int) -> "Arcs":
        arcs = Arcs.__new__(Arcs)
        arcs._set(src, dst, n, rows)
        return arcs

    def with_loops(self) -> "Arcs":
        """These arcs followed by one self-loop per output row, ``i -> i``
        for i < n.  The loops read source row i, so n must not exceed
        ``rows``; ``layers.egat_layer`` checks that."""
        loops = np.arange(self.n, dtype=np.int64)
        src, dst = np.concatenate([self.src, loops]), np.concatenate([self.dst, loops])
        return Arcs._unchecked(src, dst, self.n, self.rows)

    def prefix(self, k: int, n: int, rows: int | None = None) -> "Arcs":
        """The first ``k`` arcs, read from the first ``rows`` source rows (all
        of them by default) into the first ``n`` output rows; these arcs
        themselves when that is all of them.  Only a side that loses rows
        is checked: ``dst < n`` when n cuts output rows off, ``src < rows``
        when ``rows`` cuts source rows off."""
        rows = self.rows if rows is None else rows
        if not (0 <= k <= self.m and 0 <= n <= self.n and 0 <= rows <= self.rows):
            raise ValueError(
                f"arcs: prefix of {k} arcs from {rows} rows into {n} is not within "
                f"{self.m} arcs from {self.rows} rows into {self.n}"
            )
        if (k, n, rows) == (self.m, self.n, self.rows):
            return self
        src, dst = self.src[:k], self.dst[:k]
        if n < self.n and not _below(dst, n):
            raise ValueError(f"arcs: arc destination out of range for {n} rows")
        if rows < self.rows and not _below(src, rows):
            raise ValueError(f"arcs: arc source out of range for {rows} rows")
        return Arcs._unchecked(src, dst, n, rows)


def arc_linear(V: Tensor, E: Tensor, arcs: Arcs, M: Tensor) -> Tensor:
    """Rows ``[V[dst] | E | V[src]] @ M``, one per arc, without the triple.

    Both endpoints index V's rows.  ``M`` stacks the destination, arc and
    source row blocks (d_in, d_e and d_in rows).  ``E`` covers the first
    arcs; arcs past its rows (padded self-loops) have zero arc features, so
    their arc term vanishes.  The output is ``(V M_d)[dst] + (V M_s)[src]``
    plus ``E M_e`` on E's rows; backward scatters the upstream rows to
    destination and source nodes once each, then takes node-count matmuls;
    an upstream of width >= 2 scatters through the arc tables when the
    arcs have them.
    """
    src, dst = arcs.src, arcs.dst
    n, d_in = V.shape
    m_e, d_e = E.shape
    if M.shape[0] != 2 * d_in + d_e:
        raise ValueError(
            f"arc_linear: M {M.shape} needs 2*{d_in} + {d_e} rows for nodes {V.shape} "
            f"and arcs {E.shape}"
        )
    if m_e > arcs.m:
        raise ValueError(f"arc_linear: arc features {E.shape} outnumber the {arcs.m} arcs")
    if arcs.rows != n or arcs.n > n:
        raise ValueError(
            f"arc_linear: arcs from {arcs.rows} rows into {arcs.n} do not index nodes {V.shape}"
        )
    M_d, M_e, M_s = M.values[:d_in], M.values[d_in : d_in + d_e], M.values[d_in + d_e :]
    out_values = (V.values @ M_d)[dst] + (V.values @ M_s)[src]
    out_values[:m_e] += E.values @ M_e

    def backward_fn(g):
        g_arc = g[:m_e]
        if E.requires_grad:
            E.accumulate_grad(g_arc @ M_e.T)
        if V.requires_grad or M.requires_grad:
            wide = g.shape[1] > 1
            g_dst = _scatter(g, dst, n, arcs.into_rows() if wide else None)
            g_src = _scatter(g, src, n, arcs.from_rows() if wide else None)
            if V.requires_grad:
                V.accumulate_grad(g_dst @ M_d.T + g_src @ M_s.T)
            if M.requires_grad:
                M.accumulate_grad(
                    np.concatenate(
                        [V.values.T @ g_dst, E.values.T @ g_arc, V.values.T @ g_src], axis=0
                    )
                )

    return _result(out_values, (V, E, M), backward_fn, "arc_linear")


def attend(H: Tensor, w: Tensor, arcs: Arcs) -> Tensor:
    """Row i of the ``arcs.n`` output rows is ``sum over arcs a with
    dst[a] == i of w[a] * H[src[a]]``.

    One arc-weighted gather-scatter: ``w`` is an (arcs x 1) column and
    ``src`` indexes H's rows; destinations without arcs give zero rows.
    Backward gathers the upstream rows per arc and gathers ``H[src]`` again
    instead of keeping it from forward, so the node holds no arc-count
    matrix between the passes.  When the sources are the identity (pooled
    members, fused inputs), ``H[src]`` is H itself: nothing is gathered,
    and H's gradient is the per-arc rows with no scatter.  H of width >= 2
    sums through the arc tables when the arcs have them: forward through
    ``into_rows``, H's gradient through ``from_rows``, with the same
    per-arc products added in the same order as the flat-slot sum.
    """
    src, dst, n, identity = arcs.src, arcs.dst, arcs.n, arcs.identity
    if w.shape != (arcs.m, 1):
        raise ValueError(f"attend: weights {w.shape} must be a column of one row per arc ({arcs.m})")
    rows, d = H.shape
    if rows != arcs.rows:
        raise ValueError(f"attend: {rows} rows of H for arcs from {arcs.rows} rows")

    def sources():
        return H.values if identity else H.values[src]

    into = arcs.into_rows() if d > 1 else None
    if into is None:
        out_values = _segment_sum_np(sources() * w.values, dst, n)
    else:
        out_values = _table_sum(_gathered(H.values, src, into), _padded(w.values)[into, 0])
    # read in backward only; taken now so the closure holds this table, not the arc set
    out_of = None
    if d > 1 and not identity and _GRAD_ENABLED and H.requires_grad:
        out_of = arcs.from_rows()

    def backward_fn(g):
        gd = g[dst] if w.requires_grad or out_of is None else None
        if w.requires_grad:
            w.accumulate_grad((gd * sources()).sum(axis=1, keepdims=True))
        if H.requires_grad:
            if out_of is not None:
                H.accumulate_grad(_table_sum(_gathered(g, dst, out_of), _padded(w.values)[out_of, 0]))
            else:
                g_src = gd * w.values
                H.accumulate_grad(g_src if identity else _segment_sum_np(g_src, src, rows))

    return _result(out_values, (H, w), backward_fn, "attend")


def leaky_relu(x: Tensor) -> Tensor:
    # derivative at exactly 0 is defined as 1
    positive = x.values >= 0
    out_values = np.where(positive, x.values, LEAKY_SLOPE * x.values)

    def backward_fn(g):
        if x.requires_grad:
            x.accumulate_grad(g * np.where(positive, 1.0, LEAKY_SLOPE))

    return _result(out_values, (x,), backward_fn, "leaky_relu")


def tanh(x: Tensor) -> Tensor:
    out_values = np.tanh(x.values)

    def backward_fn(g):
        if x.requires_grad:
            x.accumulate_grad(g * (1.0 - out_values * out_values))

    return _result(out_values, (x,), backward_fn, "tanh")


def segment_softmax(scores: Tensor, arcs: Arcs) -> Tensor:
    """Softmax of an Ex1 score column, one score per arc, taken
    independently over the arcs into each of the ``arcs.n`` output rows.

    Uses max-subtraction for overflow safety; output rows without arcs
    simply yield no outputs.
    """
    seg, n_segments = arcs.dst, arcs.n
    if n_segments <= 0:
        raise ValueError("segment_softmax: empty segment id space")
    if scores.shape[1] != 1:
        raise ValueError(f"segment_softmax expects an Ex1 column, got {scores.shape}")
    if seg.shape[0] != scores.shape[0]:
        raise ValueError("segment_softmax: one segment id per score required")
    if seg.size == 0:
        raise ValueError("segment_softmax: no scores to normalize")

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


def segment_max(values: Tensor, arcs: Arcs) -> Tensor:
    """Per-output-row column-wise max of the rows ``values[src]``, arc a's
    row going to output row ``dst[a]``; output rows without arcs give zero
    rows.

    As in ``attend``, identity sources are read in place; otherwise the
    gathered rows live through forward only, and backward scatter-adds to
    the source rows.  Gradient routes to the first gathered row attaining
    the maximum in each (output row, column) slot; a NaN counts as the
    maximum, as in ``argmax``.
    """
    rows, d = values.shape
    src, seg, n_segments, identity = arcs.src, arcs.dst, arcs.n, arcs.identity
    if rows != arcs.rows:
        raise ValueError(f"segment_max: {rows} rows of values for arcs from {arcs.rows} rows")
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
