"""Edge-featured graph attention, per-edge-type propagation, and fusion.

The convolution scores each arc from the concatenated (destination node,
arc feature, source node) triple, normalizes scores over every
destination's incoming arcs, and sums the attention-weighted transformed
source features.  Self-loops with zero-vector arc features are appended
internally so isolated nodes keep their own transformed signal; they do
not appear in the updated arc features.

Arc features are updated from the same triple for the next layer to
consume.  The terminal layer of a stack whose arcs nothing reads carries
no arc updater (``EgatParams.A`` is None) and returns None for its arcs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .optim import Parameter, xavier_uniform, zeros
from .tensor import (
    Tensor,
    add,
    gather_rows,
    hstack,
    leaky_relu,
    matmul,
    mul,
    segment_softmax,
    segment_sum,
    tanh,
    vstack,
)

LEAKY_SLOPE = 0.2


@dataclass
class EgatParams:
    """Weights of one convolution layer.

    W transforms source nodes, U and a score the concatenated arc triple,
    A produces the updated arc feature from the same triple; a layer whose
    updated arcs nothing reads has no A (``d_e_out=None``).
    """

    W: Parameter  # d_in x d_out
    U: Parameter  # (2*d_in + d_e) x d_att
    a: Parameter  # d_att x 1
    A: Parameter | None  # (2*d_in + d_e) x d_e_out

    @staticmethod
    def create(
        prefix: str, d_in: int, d_e: int, d_out: int, d_e_out: int | None, d_att: int, rng
    ) -> "EgatParams":
        cat = 2 * d_in + d_e
        return EgatParams(
            W=xavier_uniform(f"{prefix}.W", (d_in, d_out), rng),
            U=xavier_uniform(f"{prefix}.U", (cat, d_att), rng),
            a=xavier_uniform(f"{prefix}.a", (d_att, 1), rng),
            A=None if d_e_out is None else xavier_uniform(f"{prefix}.A", (cat, d_e_out), rng),
        )

    def parameters(self) -> list[Parameter]:
        return [self.W, self.U, self.a] + ([self.A] if self.A is not None else [])

    @property
    def d_in(self) -> int:
        return self.W.values.shape[0]

    @property
    def d_e(self) -> int:
        return self.U.values.shape[0] - 2 * self.d_in


@dataclass
class FusionParams:
    """Per-node scoring weights for aggregating several tagged inputs."""

    c: Parameter  # d x 1
    W: Parameter  # d x d
    b: Parameter  # 1 x 1

    @staticmethod
    def create(prefix: str, d: int, rng) -> "FusionParams":
        return FusionParams(
            c=xavier_uniform(f"{prefix}.c", (d, 1), rng),
            W=xavier_uniform(f"{prefix}.W", (d, d), rng),
            b=zeros(f"{prefix}.b", (1, 1)),
        )

    def parameters(self) -> list[Parameter]:
        return [self.c, self.W, self.b]


@dataclass
class AttentionRecord:
    """Detached attention weights captured during a forward pass.

    ``arc_alpha`` holds the per-arc normalized weights (self-loops last)
    with their destination ids; ``beta`` holds per-node fusion weights, one
    column per tag.
    """

    arc_alpha: np.ndarray | None = None
    arc_dst: np.ndarray | None = None
    beta: np.ndarray | None = None
    tags: tuple[str, ...] = ()


def egat_layer(
    V: Tensor,
    E: Tensor,
    arc_src,
    arc_dst,
    params: EgatParams,
) -> tuple[Tensor, Tensor | None, AttentionRecord]:
    """One convolution: returns updated nodes, updated arcs (None without an
    arc updater), attention record.

    A graph without arcs takes the same path with zero-row arc tensors, so
    every parameter of the layer still receives a (zero) gradient.
    """
    n = V.shape[0]
    src = np.asarray(arc_src, dtype=np.int64)
    dst = np.asarray(arc_dst, dtype=np.int64)
    d_e = params.d_e
    if V.shape[1] != params.d_in:
        raise ValueError(f"node width {V.shape[1]} does not match layer d_in {params.d_in}")
    if E.shape != (src.shape[0], d_e):
        raise ValueError(
            f"arc features {E.shape} do not match {src.shape[0]} arcs of width {d_e}"
        )

    loop_idx = np.arange(n, dtype=np.int64)
    cat_self = hstack([V, Tensor(np.zeros((n, d_e))), V])
    src_feats = gather_rows(V, src)
    cat_real = hstack([gather_rows(V, dst), E, src_feats])
    cat_full = vstack([cat_real, cat_self])
    full_dst = np.concatenate([dst, loop_idx])
    E_out = None if params.A is None else matmul(cat_real, params.A.tensor)

    scores = leaky_relu(matmul(matmul(cat_full, params.U.tensor), params.a.tensor), LEAKY_SLOPE)
    alpha = segment_softmax(scores, full_dst, n)
    sources = vstack([src_feats, V])  # rows follow full_src
    V_out = segment_sum(mul(matmul(sources, params.W.tensor), alpha), full_dst, n)

    record = AttentionRecord(arc_alpha=alpha.values, arc_dst=full_dst)
    return V_out, E_out, record


def attention_fusion(
    inputs: list[tuple[str, Tensor]],
    fusion: FusionParams,
) -> tuple[Tensor, AttentionRecord]:
    """Softmax-weighted combination of equally shaped tagged inputs, per node.

    Each tag's per-node score is c' tanh(V W + b); weights are the softmax
    of the scores across tags, so they sum to one for every node.
    """
    if len(inputs) < 2:
        raise ValueError("attention_fusion needs at least two tagged inputs")
    shape = inputs[0][1].shape
    for tag, t in inputs[1:]:
        if t.shape != shape:
            raise ValueError(f"fusion input {tag!r} has shape {t.shape}, expected {shape}")
    n = shape[0]
    n_tags = len(inputs)

    scores = [
        matmul(tanh(add(matmul(t, fusion.W.tensor), fusion.b.tensor)), fusion.c.tensor)
        for _, t in inputs
    ]
    stacked = vstack(scores)  # (n_tags*n) x 1, tag-major
    seg = np.tile(np.arange(n, dtype=np.int64), n_tags)
    beta = segment_softmax(stacked, seg, n)

    out = None
    for k, (_, t) in enumerate(inputs):
        weights = gather_rows(beta, np.arange(k * n, (k + 1) * n, dtype=np.int64))
        term = mul(t, weights)
        out = term if out is None else add(out, term)

    record = AttentionRecord(
        beta=beta.values.reshape(n_tags, n).T,
        tags=tuple(tag for tag, _ in inputs),
    )
    return out, record


@dataclass
class HeteroLayerRecord:
    per_type: dict[str, AttentionRecord]
    fusion: AttentionRecord


def hetero_layer(
    V: Tensor,
    typed_arcs: list[tuple[str, np.ndarray, np.ndarray, Tensor, EgatParams]],
    fusion: FusionParams,
) -> tuple[Tensor, dict[str, Tensor | None], HeteroLayerRecord]:
    """Propagate independently per arc type, then fuse the per-type outputs.

    ``typed_arcs`` entries are (tag, src, dst, arc_feats, params).  With a
    single surviving type (ablated graphs) fusion degenerates to that type
    with weight one everywhere.
    """
    if not typed_arcs:
        raise ValueError("hetero_layer needs at least one arc type")
    outs: list[tuple[str, Tensor]] = []
    new_edges: dict[str, Tensor | None] = {}
    per_type: dict[str, AttentionRecord] = {}
    for tag, src, dst, feats, params in typed_arcs:
        v_out, e_out, rec = egat_layer(V, feats, src, dst, params)
        outs.append((tag, v_out))
        new_edges[tag] = e_out
        per_type[tag] = rec

    if len(outs) == 1:
        tag, v_out = outs[0]
        fusion_rec = AttentionRecord(beta=np.ones((V.shape[0], 1)), tags=(tag,))
        return v_out, new_edges, HeteroLayerRecord(per_type, fusion_rec)

    fused, fusion_rec = attention_fusion(outs, fusion)
    return fused, new_edges, HeteroLayerRecord(per_type, fusion_rec)


def stack_egat(
    V: Tensor,
    E: Tensor,
    arc_src,
    arc_dst,
    layer_params: list[EgatParams],
) -> tuple[Tensor, Tensor | None, list[AttentionRecord]]:
    """Sequential convolutions on one homogeneous graph; arc features chain.
    The returned arcs are None when the last layer has no arc updater."""
    if not layer_params:
        raise ValueError("stack_egat needs at least one layer")
    records = []
    for params in layer_params:
        V, E, rec = egat_layer(V, E, arc_src, arc_dst, params)
        records.append(rec)
    return V, E, records


def stack_hetero(
    V: Tensor,
    typed_arcs: list[tuple[str, np.ndarray, np.ndarray, Tensor]],
    layer_params: list[dict[str, EgatParams]],
    fusion: FusionParams,
) -> tuple[Tensor, list[HeteroLayerRecord]]:
    """Sequential heterogeneous layers; each consumes the previous layer's
    node output and per-type arc outputs.  Fusion weights are shared across
    the stack (one site).  Only the last layer may lack arc updaters."""
    if not layer_params:
        raise ValueError("stack_hetero needs at least one layer")
    feats = {tag: f for tag, _, _, f in typed_arcs}
    structure = [(tag, src, dst) for tag, src, dst, _ in typed_arcs]
    records = []
    for params_by_tag in layer_params:
        layer_input = [
            (tag, src, dst, feats[tag], params_by_tag[tag]) for tag, src, dst in structure
        ]
        V, new_feats, rec = hetero_layer(V, layer_input, fusion)
        feats = new_feats
        records.append(rec)
    return V, records
