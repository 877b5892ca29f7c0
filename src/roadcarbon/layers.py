"""Edge-featured graph attention, per-edge-type propagation, and fusion.

The convolution scores each arc from the concatenated (destination node,
arc feature, source node) triple, normalizes scores over every
destination's incoming arcs, and sums the attention-weighted transformed
source features.  Every node's self-loop is a padded arc: the n loops
follow the m real arcs, so one score pass covers both and isolated nodes
keep their own transformed signal.

The weighted sum is one fused kernel, ``tensor.attend``, as in PyG's
message passing: it gathers each arc's transformed source row, weighs it by
the arc's attention and scatters it into the destination as one graph node.
No arc-count message matrix is kept between forward and backward; backward
gathers the source rows again.

Arc features are updated from the same triple for the next layer to
consume.  The score map and the arc update are both linear in the triple
before any nonlinearity, so ``tensor.arc_linear`` applies their destination
and source row blocks to the n node rows and gathers the products per arc,
the split GAT makes: the triple matrix is never materialised, and a
self-loop's arc term is zero by construction, as the loops lie past the m
arc feature rows.  The terminal layer of a stack whose arcs nothing reads
carries no arc updater (``EgatParams.A`` is None) and returns None for its
arcs.

``stack_egat`` chains convolutions over one arc set.  ``stack_hetero`` runs
a heterogeneous graph with typed arc sets (spatial ``rn`` and OD ``od``):
every layer convolves once per type, with its own weights and that type's
arc features, then ``attention_fusion`` weighs the per-type node outputs
per node, as in HAN's node-level then semantic-level attention.  The fusion
is ``attend`` again: each stacked (tag, node) row is an arc into its node,
weighted by the fusion softmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .optim import Parameter, xavier_uniform, zeros
from .tensor import (
    Tensor,
    add,
    arc_linear,
    attend,
    leaky_relu,
    matmul,
    row_prefix,
    segment_softmax,
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
    arcs_out: int | None = None,
) -> tuple[Tensor, Tensor | None, AttentionRecord]:
    """One convolution: returns updated nodes, updated arcs (None without an
    arc updater), attention record.

    The arc update covers the first ``arcs_out`` arcs, all of them by
    default: the arcs the next layer reads.  A graph without arcs takes the
    same path with zero-row arc tensors, so every parameter of the layer
    still receives a (zero) gradient.
    """
    n = V.shape[0]
    src = np.asarray(arc_src, dtype=np.int64)
    dst = np.asarray(arc_dst, dtype=np.int64)
    m, d_e = src.shape[0], params.d_e
    if V.shape[1] != params.d_in:
        raise ValueError(f"node width {V.shape[1]} does not match layer d_in {params.d_in}")
    if E.shape != (m, d_e):
        raise ValueError(f"arc features {E.shape} do not match {m} arcs of width {d_e}")

    loops = np.arange(n, dtype=np.int64)
    full_src = np.concatenate([src, loops])
    full_dst = np.concatenate([dst, loops])
    ua = matmul(params.U.tensor, params.a.tensor)
    scores = leaky_relu(arc_linear(V, E, full_src, full_dst, ua), LEAKY_SLOPE)
    alpha = segment_softmax(scores, full_dst, n)
    V_out = attend(matmul(V, params.W.tensor), alpha, full_src, full_dst, n)
    E_out = None
    if params.A is not None:
        k = m if arcs_out is None else arcs_out
        E_out = arc_linear(V, row_prefix(E, k), src[:k], dst[:k], params.A.tensor)

    record = AttentionRecord(arc_alpha=alpha.values, arc_dst=full_dst)
    return V_out, E_out, record


def attention_fusion(
    inputs: list[tuple[str, Tensor]],
    fusion: FusionParams,
) -> tuple[Tensor, AttentionRecord]:
    """Softmax-weighted combination of equally shaped tagged inputs, per node.

    Each tag's per-node score is c' tanh(V W + b); weights are the softmax
    of the scores across tags, so they sum to one for every node.  The
    weighted sum is one ``attend`` from the stacked tag rows into the nodes.
    """
    if len(inputs) < 2:
        raise ValueError("attention_fusion needs at least two tagged inputs")
    shape = inputs[0][1].shape
    for tag, t in inputs[1:]:
        if t.shape != shape:
            raise ValueError(f"fusion input {tag!r} has shape {t.shape}, expected {shape}")
    n = shape[0]
    n_tags = len(inputs)

    X = vstack([t for _, t in inputs])  # (n_tags*n) x d, tag-major
    seg = np.tile(np.arange(n, dtype=np.int64), n_tags)
    scores = matmul(tanh(add(matmul(X, fusion.W.tensor), fusion.b.tensor)), fusion.c.tensor)
    beta = segment_softmax(scores, seg, n)
    out = attend(X, beta, np.arange(n_tags * n), seg, n)

    record = AttentionRecord(
        beta=beta.values.reshape(n_tags, n).T,
        tags=tuple(tag for tag, _ in inputs),
    )
    return out, record


@dataclass
class HeteroLayerRecord:
    per_type: dict[str, AttentionRecord]
    fusion: AttentionRecord


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
    fusion: FusionParams | None,
    layer_arcs: dict[str, list[int]] | None = None,
) -> tuple[Tensor, list[HeteroLayerRecord]]:
    """Sequential heterogeneous layers over ``typed_arcs`` entries
    (tag, src, dst, arc_feats).

    Each layer convolves once per arc type, each type's arc features
    chaining through the stack, then fuses the per-type node outputs per
    node.  Fusion weights are shared across the stack (one site).  With a
    single surviving type (ablated graphs) fusion passes that type through
    with weight one everywhere.  Only the last layer may lack arc updaters.

    Layer l reads the first ``layer_arcs[tag][l]`` arcs of each type, and
    each layer's arc update computes only the arcs the next layer reads, so
    the counts may only fall with depth.  Without ``layer_arcs`` every layer
    reads every arc.  A caller that reads only some output rows orders each
    type's arcs by how many hops their destination lies from those rows:
    layer l then needs only the arcs into rows within ``depth - 1 - l``
    hops, and the rows the caller reads equal those without prefixes.
    """
    if not layer_params:
        raise ValueError("stack_hetero needs at least one layer")
    depth = len(layer_params)
    counts = {
        tag: layer_arcs[tag] if layer_arcs else [len(src)] * depth
        for tag, src, _, _ in typed_arcs
    }
    feats = {tag: row_prefix(f, counts[tag][0]) for tag, _, _, f in typed_arcs}
    records = []
    for layer, params_by_tag in enumerate(layer_params):
        outs: list[tuple[str, Tensor]] = []
        per_type: dict[str, AttentionRecord] = {}
        for tag, src, dst, _ in typed_arcs:
            k = counts[tag][layer]
            arcs_out = counts[tag][layer + 1] if layer + 1 < depth else None
            v_out, feats[tag], per_type[tag] = egat_layer(
                V, feats[tag], src[:k], dst[:k], params_by_tag[tag], arcs_out
            )
            outs.append((tag, v_out))
        if len(outs) == 1:
            [(tag, V)] = outs
            fusion_rec = AttentionRecord(beta=np.ones((V.shape[0], 1)), tags=(tag,))
        else:
            V, fusion_rec = attention_fusion(outs, fusion)
        records.append(HeteroLayerRecord(per_type, fusion_rec))
    return V, records
