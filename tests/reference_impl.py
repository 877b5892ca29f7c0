"""Independent brute-force references shared by layer and acceptance tests,
the arc sets and entry-sum loss the kernel and gradient tests share, and
the region-cache recorder the epoch-lag tests share."""

import numpy as np

from roadcarbon.tensor import Arcs, Tensor, attend, matmul


def dense_egat_reference(V, E, src, dst, params, slope=0.2):
    """Per-node-loop implementation of the convolution, O(N^2)-style.

    Mirrors the math from first principles: per destination, score every
    incoming arc (plus a zero-feature self-loop), softmax, and sum the
    attention-weighted transformed source rows.
    """
    n, _ = V.shape
    W, U, a = params.W.values, params.U.values, params.a.values
    d_e = params.d_e
    incoming = {i: [] for i in range(n)}
    for k, (s, d) in enumerate(zip(src, dst)):
        incoming[d].append((s, E[k]))
    for i in range(n):
        incoming[i].append((i, np.zeros(d_e)))
    V_out = np.zeros((n, W.shape[1]))
    for i in range(n):
        scores = []
        for j, e in incoming[i]:
            cat = np.concatenate([V[i], e, V[j]])
            h = (cat @ U @ a).item()
            scores.append(h if h >= 0 else slope * h)
        scores = np.array(scores)
        exps = np.exp(scores - scores.max())
        alpha = exps / exps.sum()
        for (j, _), w in zip(incoming[i], alpha):
            V_out[i] += w * (V[j] @ W)
    if len(src):
        E_out = np.stack(
            [
                np.concatenate([V[d], E[k], V[s]]) @ params.A.values
                for k, (s, d) in enumerate(zip(src, dst))
            ]
        )
    else:
        E_out = np.zeros((0, params.A.values.shape[1]))
    return V_out, E_out


def random_arc_graph(rng, n, d_in=3, d_e=2):
    V = rng.normal(size=(n, d_in))
    m = int(rng.integers(1, max(2, n * 2)))
    src = rng.integers(0, n, size=m)
    dst = (src + 1 + rng.integers(0, n - 1, size=m)) % n
    E = rng.normal(size=(m, d_e))
    return V, E, src, dst


def layer_arcs(src, dst, n, rows=None):
    """The two arc sets ``egat_layer`` takes: the arcs from ``rows`` rows
    (default n) into the first n, and the same arcs with self-loops."""
    arcs = Arcs(src, dst, n, rows)
    return arcs, arcs.with_loops()


def in_order(seg, n_seg):
    """Arcs that read every row in order, row k into segment ``seg[k]``."""
    seg = np.asarray(seg, dtype=np.int64)
    return Arcs(np.arange(seg.size), seg, n_seg, seg.size)


def gather(x, idx):
    """Rows ``x[idx]``, repeats allowed, as ``attend`` with unit weights:
    one arc per gathered row, so backward scatter-adds to the source rows."""
    idx = np.asarray(idx, dtype=np.int64)
    arcs = Arcs(idx, np.arange(idx.size), idx.size, x.shape[0])
    return attend(x, Tensor(np.ones((idx.size, 1))), arcs)


def entry_sum(x):
    """The sum of ``x``'s entries as a 1x1 tensor, ``1' X 1`` from two matmuls."""
    n, d = x.shape
    return matmul(matmul(Tensor(np.ones((1, n))), x), Tensor(np.ones((d, 1))))


def record_caches(model):
    """Wrap ``model.predict_batch`` to record ``(cache.epoch, cache bytes)``
    at every call, training steps and validation alike; returns the list the
    records go to.  The bytes cover every region's cached row, in region
    order."""
    seen = []
    predict_batch = model.predict_batch

    def recording(prepared, region_ids, cache, record=None):
        rows = tuple((rid, cache.reps[rid].tobytes()) for rid in sorted(cache.reps))
        seen.append((cache.epoch, rows))
        return predict_batch(prepared, region_ids, cache, record)

    model.predict_batch = recording
    return seen
