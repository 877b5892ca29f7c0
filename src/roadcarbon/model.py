"""End-to-end emission model: road-level encoding, community and region
heterogeneous stacks, epoch-lagged region cache, fusion head, checkpoints.

Per region the forward pass runs the road-level convolution stack, pools
intersections and internal segments into community features, propagates the
community heterogeneous graph, and pools to one intra-region vector.  The
region-level graph is evaluated against cached neighbor vectors refreshed
once per epoch; only the target region's own row is live so gradients flow
through its full hierarchy while neighbors act as constants.

``EmissionModel.predict_batch`` runs a batch of regions as disjoint unions
(one block-diagonal graph, every index shifted past the regions before
it): one intra pass per union of at most ``UNION_ROW_BUDGET`` road rows
(nodes + arcs), then ``predict_from_intra`` on the stacked intra rows: one
region-level pass over the union of the targets' egos, one fusion and one
head.  Training runs each minibatch this way; ``predict_region`` is the
one-region call, and a prepared region is its own one-region union.
``train.predict_split`` runs its intra rows one region at a time and the
rest once per chunk of ``batch_size`` regions.  Every region-level
subgraph is a ``RegionEgo`` carved by ``_union_egos``: each stored ego from
the whole region graph, each batch's union from the targets' stored egos.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .config import RunConfig
from .data import Dataset, atomic_write
from .graphs import (
    EDGE_FEATURE_DIM,
    NODE_FEATURE_DIM,
    ODFlow,
    adjacency_arcs,
    community_node_features,
    community_spatial_arcs,
    od_arcs,
    pool,
    pool_nodes,
)
from .layers import (
    AttentionRecord,
    EgatParams,
    FusionParams,
    HeteroLayerRecord,
    attention_fusion,
    stack_egat,
    stack_hetero,
)
from .optim import Parameter, check_unique_names, xavier_uniform, zeros
from .tensor import Tensor, add, leaky_relu, matmul, no_grad, vstack

# v2: no arc updater on a stack's last layer when unread;
# v3: parameter values as base64 of their little-endian float64 bytes
CHECKPOINT_FORMAT = "hence-v3"

REGION_SPATIAL_FEAT_DIM = 1  # zero-vector stand-in; no cross-region segments exist

# Road rows (nodes + arcs) of one intra union; a region that would push a
# union past it starts the next one.  32 regions of 16 intersections (about
# 54 rows each) fit in one union.  The bound is for memory: on 16 regions of
# 400 intersections (the benchmark's large-regions world, one BLAS thread,
# 4 interleaved 20 s runs each), the whole batch in one union raised peak
# RSS from 142-143 MB to 170-176 MB, with one-epoch medians of 0.600 s at
# 2,048 rows and 0.607 s in one union.
UNION_ROW_BUDGET = 2048


class CheckpointError(ValueError):
    pass


# ---------------------------------------------------------------------------
# normalization


@dataclass
class NormStats:
    """Train-split feature and label statistics, persisted with the model.

    Labels and OD flows are log1p-transformed before z-scoring; features are
    z-scored directly.  All stds are floored at 1e-8.
    """

    node_mean: np.ndarray
    node_std: np.ndarray
    edge_mean: np.ndarray
    edge_std: np.ndarray
    community_flow_mean: float
    community_flow_std: float
    region_flow_mean: float
    region_flow_std: float
    label_mean: float
    label_std: float

    def normalize_label(self, y: float) -> float:
        return (np.log1p(y) - self.label_mean) / self.label_std

    def denormalize_label(self, z: float) -> float:
        return float(np.expm1(z * self.label_std + self.label_mean))

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
        return out

    @staticmethod
    def from_dict(data) -> "NormStats":
        """Inverse of ``to_dict``; ``data`` must hold exactly the stats keys."""
        if not isinstance(data, dict):
            raise CheckpointError("stats is not an object")
        names = {f.name for f in fields(NormStats)}
        if set(data) != names:
            raise CheckpointError(
                f"stats keys do not match (missing {sorted(names - set(data))}, "
                f"extra {sorted(set(data) - names)})"
            )
        values = {}
        for f in fields(NormStats):
            vector = f.type == "np.ndarray"
            value = _finite_numbers(data[f.name], int(vector), f"stats {f.name}")
            values[f.name] = value if vector else float(value)
        return NormStats(**values)


def _finite_numbers(value, ndim: int, what: str) -> np.ndarray:
    """A JSON number (``ndim`` 0) or list of numbers (``ndim`` 1) as float64.

    Strings, booleans, nesting and non-finite numbers raise CheckpointError.
    """
    kind = "a list of finite numbers" if ndim else "a finite number"
    try:
        arr = np.array(value)
    except ValueError:  # ragged nested lists
        raise CheckpointError(f"{what} is not {kind}")
    if arr.ndim != ndim or arr.dtype.kind not in "fi" or not np.isfinite(arr).all():
        raise CheckpointError(f"{what} is not {kind}")
    return arr.astype(np.float64, copy=False)


def _safe_std(values: np.ndarray, axis=None) -> np.ndarray:
    std = values.std(axis=axis) if values.size else np.zeros(1)
    return np.maximum(std, 1e-8)


def fit_normalization(dataset: Dataset, train_ids: list[str]) -> NormStats:
    node_rows = np.concatenate([dataset.road_graphs[r].node_feats for r in train_ids])
    edge_rows = np.concatenate([dataset.road_graphs[r].arc_feats for r in train_ids])
    train_set = set(train_ids)
    region_of = dataset.hierarchy.community_to_region
    community_flows = np.array(
        [rec.flow for rec in dataset.community_od if region_of[rec.origin] in train_set]
    )
    region_flows = np.array(
        [rec.flow for rec in dataset.region_od if rec.origin in train_set]
    )
    labels = np.array([dataset.labels[r] for r in train_ids])

    def log_stats(flows: np.ndarray) -> tuple[float, float]:
        if flows.size == 0:
            return 0.0, 1.0
        logs = np.log1p(flows)
        return float(logs.mean()), float(max(logs.std(), 1e-8))

    cf_mean, cf_std = log_stats(community_flows)
    rf_mean, rf_std = log_stats(region_flows)
    label_logs = np.log1p(labels)
    return NormStats(
        node_mean=node_rows.mean(axis=0),
        node_std=_safe_std(node_rows, axis=0),
        edge_mean=edge_rows.mean(axis=0),
        edge_std=_safe_std(edge_rows, axis=0),
        community_flow_mean=cf_mean,
        community_flow_std=cf_std,
        region_flow_mean=rf_mean,
        region_flow_std=rf_std,
        label_mean=float(label_logs.mean()),
        label_std=float(max(label_logs.std(), 1e-8)),
    )


# ---------------------------------------------------------------------------
# prepared (normalized, tensorized) dataset


@dataclass
class RegionUnion:
    """Disjoint union of prepared regions, run as one graph.

    Each region's node, arc, community and spatial-arc indices are shifted
    past those of the regions before it, so no arc or OD link joins two
    regions.  Spatial arc ``cross_dst[k]`` pools road arc ``cross_src[k]``
    (see ``graphs.community_spatial_arcs``).  ``community_region`` gives
    each community's region, by its position in the union, and
    ``community_region[groups]`` each node's.
    """

    node_feats: Tensor
    arc_feats: Tensor
    arc_src: np.ndarray
    arc_dst: np.ndarray
    groups: np.ndarray
    spatial_src: np.ndarray
    spatial_dst: np.ndarray
    cross_src: np.ndarray
    cross_dst: np.ndarray
    od_src: np.ndarray
    od_dst: np.ndarray
    od_zflow: Tensor
    community_region: np.ndarray


@dataclass
class PreparedRegion(RegionUnion):
    """One region's constant tensors and static community-graph structure,
    as its own one-region union (every row in region 0), plus its label."""

    region_id: str
    label_norm: float
    label_raw: float


@dataclass
class RegionEgo:
    """The region-level subgraph a stack reads for its targets' rows,
    carved by ``_carve`` in hop order: rows sorted stably by hop distance
    to their target, so targets first, in order, and each arc type stably
    by its destination's distance; arcs into the outermost ring, which no
    layer reads, are left out.  A stack at most as deep as the carve
    reproduces the targets' rows exactly: a row's value after layer l
    depends only on its l-hop in-neighborhood, and every row a layer
    outputs keeps its whole incoming arc set.

    A stored ego (``PreparedData.egos``) has one target, ``target_local``,
    row 0 after a carve.  ``prefixes`` are ``stack_hetero``'s per-layer
    row and arc prefixes for the carve's depth (see ``_carve``).
    """

    nodes: np.ndarray  # global region indices
    target_local: int
    spatial_src: np.ndarray
    spatial_dst: np.ndarray
    spatial_feats: Tensor
    od_src: np.ndarray
    od_dst: np.ndarray
    od_zflow: Tensor
    prefixes: dict[str, list[int]] | None = None


def _shifted(parts: list[np.ndarray], sizes: list[int]) -> np.ndarray:
    """Concatenate index arrays, each shifted past the parts before it; one part as is."""
    if len(parts) == 1:
        return parts[0]
    offsets = np.cumsum([0] + sizes[:-1])
    return np.concatenate([p + o for p, o in zip(parts, offsets)])


def _stacked(parts: list[Tensor]) -> Tensor:
    """Row-wise concatenation of constant tensors."""
    return Tensor(np.concatenate([t.values for t in parts]))


def _union_regions(regions: list[PreparedRegion]) -> RegionUnion:
    """The disjoint union of ``regions``; one region is its own union."""
    if len(regions) == 1:
        return regions[0]
    n_nodes = [r.node_feats.shape[0] for r in regions]
    n_arcs = [r.arc_src.size for r in regions]
    n_comms = [r.community_region.size for r in regions]
    n_spatial = [r.spatial_src.size for r in regions]
    return RegionUnion(
        node_feats=_stacked([r.node_feats for r in regions]),
        arc_feats=_stacked([r.arc_feats for r in regions]),
        arc_src=_shifted([r.arc_src for r in regions], n_nodes),
        arc_dst=_shifted([r.arc_dst for r in regions], n_nodes),
        groups=_shifted([r.groups for r in regions], n_comms),
        spatial_src=_shifted([r.spatial_src for r in regions], n_comms),
        spatial_dst=_shifted([r.spatial_dst for r in regions], n_comms),
        cross_src=_shifted([r.cross_src for r in regions], n_arcs),
        cross_dst=_shifted([r.cross_dst for r in regions], n_spatial),
        od_src=_shifted([r.od_src for r in regions], n_comms),
        od_dst=_shifted([r.od_dst for r in regions], n_comms),
        od_zflow=_stacked([r.od_zflow for r in regions]),
        community_region=np.repeat(np.arange(len(regions)), n_comms),
    )


def _carve(n: int, roots: np.ndarray, spatial: tuple, od: tuple, depth: int) -> tuple:
    """What a ``depth``-layer stack reads of an ``n``-row graph to compute
    the rows of ``roots``, in hop order: ``(rows, arcs, prefixes)``.

    Hop distances to the nearest root along the ``(src, dst)`` arcs of
    ``spatial`` and ``od`` take ``depth`` frontier steps.  ``rows`` are the
    rows within ``depth`` hops, sorted stably by distance, roots first.
    ``arcs[tag]`` (``rn`` spatial, ``od`` OD) holds the positions, and the
    sources and destinations renumbered to ``rows``, of the arcs into rows
    within ``depth - 1`` hops, sorted stably by destination distance.
    Layer l outputs the first ``prefixes["rows"][l]`` rows, those within
    ``depth - 1 - l`` hops, from the first ``prefixes[tag][l]`` arcs.
    """
    src = np.concatenate([spatial[0], od[0]])
    dst = np.concatenate([spatial[1], od[1]])
    dist = np.full(n, depth + 1, dtype=np.int64)
    dist[roots] = 0
    for k in range(depth):
        reached = src[dist[dst] == k]
        dist[reached] = np.minimum(dist[reached], k + 1)

    def hop_order(key: np.ndarray, bound: int) -> tuple[np.ndarray, list[int]]:
        """The positions with ``key <= bound`` stably by key, and each layer's prefix."""
        kept = np.flatnonzero(key <= bound)
        kept = kept[np.argsort(key[kept], kind="stable")]
        counts = np.searchsorted(key[kept], np.arange(depth - 1, -1, -1), side="right")
        return kept, counts.tolist()

    prefixes = {}
    rows, prefixes["rows"] = hop_order(dist, depth)
    renumber = np.empty(n, dtype=np.int64)
    renumber[rows] = np.arange(rows.size)
    arcs = {}
    for tag, (s, d) in (("rn", spatial), ("od", od)):
        kept, prefixes[tag] = hop_order(dist[d], depth - 1)
        arcs[tag] = (kept, renumber[s[kept]], renumber[d[kept]])
    return rows, arcs, prefixes


def _union_egos(egos: list[RegionEgo], depth: int) -> RegionEgo:
    """The disjoint union of target egos, targets first in order, carved
    for a ``depth``-layer stack (see ``RegionEgo``).  Hop distances are
    taken afresh and the egos' own ``prefixes`` are not read, so an ego
    need only hold its target's ``depth``-hop in-neighborhood."""
    sizes = [e.nodes.size for e in egos]

    def shifted(field: str) -> np.ndarray:
        return _shifted([getattr(e, field) for e in egos], sizes)

    rows, arcs, prefixes = _carve(
        sum(sizes),
        _shifted([np.array([e.target_local]) for e in egos], sizes),
        (shifted("spatial_src"), shifted("spatial_dst")),
        (shifted("od_src"), shifted("od_dst")),
        depth,
    )
    (sp_order, spatial_src, spatial_dst), (od_order, od_src, od_dst) = arcs["rn"], arcs["od"]
    return RegionEgo(
        nodes=np.concatenate([e.nodes for e in egos])[rows],
        target_local=0,
        spatial_src=spatial_src,
        spatial_dst=spatial_dst,
        spatial_feats=Tensor(_stacked([e.spatial_feats for e in egos]).values[sp_order]),
        od_src=od_src,
        od_dst=od_dst,
        od_zflow=Tensor(_stacked([e.od_zflow for e in egos]).values[od_order]),
        prefixes=prefixes,
    )


def _budgeted_runs(regions: list[PreparedRegion]) -> list[list[PreparedRegion]]:
    """Consecutive runs of ``regions``, each of at most ``UNION_ROW_BUDGET``
    road rows unless a single region alone exceeds it."""
    runs: list[list[PreparedRegion]] = []
    rows = 0
    for prep in regions:
        size = prep.node_feats.shape[0] + prep.arc_src.size
        if not runs or rows + size > UNION_ROW_BUDGET:
            runs.append([])
            rows = 0
        runs[-1].append(prep)
        rows += size
    return runs


@dataclass
class PreparedData:
    regions: dict[str, PreparedRegion]
    region_ids: list[str]
    stats: NormStats
    region_spatial_src: np.ndarray
    region_spatial_dst: np.ndarray
    region_spatial_feats: Tensor
    region_od_src: np.ndarray
    region_od_dst: np.ndarray
    region_od_zflow: Tensor
    egos: dict[str, RegionEgo]
    ego_hops: int
    _region_index: dict[str, int]

    def region_index(self, region_id: str) -> int:
        return self._region_index[region_id]


def _zscore_log_flow(flows: np.ndarray, mean: float, std: float) -> np.ndarray:
    return (np.log1p(flows) - mean) / std


def prepare_dataset(
    dataset: Dataset, stats: NormStats, min_flow: float = 0.0, *, hops: int
) -> PreparedData:
    """Z-score features once, freeze them as constant tensors, and derive the
    static typed-arc structure of every heterogeneous graph.

    ``hops`` bounds the region-level receptive field: each region's ego holds
    its ``hops``-hop in-neighborhood and the arcs a ``hops``-layer stack
    reads (see ``RegionEgo``).  It must be at least the region stack's
    depth; at ``hops`` equal to the depth each ego is already its own
    one-target union.
    """
    by_region_od: dict[str, list[ODFlow]] = {r: [] for r in dataset.region_ids}
    region_of = dataset.hierarchy.community_to_region
    for rec in dataset.community_od:
        by_region_od[region_of[rec.origin]].append(rec)

    regions = {}
    for region_id in dataset.region_ids:
        graph = dataset.road_graphs[region_id]
        if graph.n_nodes == 0:
            raise ValueError(f"region {region_id} has no intersections")
        communities = dataset.hierarchy.communities_of(region_id)
        community_index = {c: k for k, c in enumerate(communities)}
        groups = np.array(
            [
                community_index[dataset.hierarchy.node_to_community[nid]]
                for nid in graph.node_ids
            ],
            dtype=np.int64,
        )
        spatial_src, spatial_dst, cross_src, cross_dst = community_spatial_arcs(
            graph.arc_src, graph.arc_dst, groups
        )
        od_src, od_dst, flows = od_arcs(by_region_od[region_id], community_index, min_flow)
        regions[region_id] = PreparedRegion(
            node_feats=Tensor((graph.node_feats - stats.node_mean) / stats.node_std),
            arc_feats=Tensor((graph.arc_feats - stats.edge_mean) / stats.edge_std),
            arc_src=graph.arc_src,
            arc_dst=graph.arc_dst,
            groups=groups,
            spatial_src=spatial_src,
            spatial_dst=spatial_dst,
            cross_src=cross_src,
            cross_dst=cross_dst,
            od_src=od_src,
            od_dst=od_dst,
            od_zflow=Tensor(
                _zscore_log_flow(flows, stats.community_flow_mean, stats.community_flow_std)
            ),
            community_region=np.zeros(len(communities), dtype=np.int64),
            region_id=region_id,
            label_norm=stats.normalize_label(dataset.labels[region_id]),
            label_raw=dataset.labels[region_id],
        )

    region_index = {r: i for i, r in enumerate(dataset.region_ids)}
    spatial_src, spatial_dst = adjacency_arcs(dataset.region_adjacency, region_index)
    od_src, od_dst, flows = od_arcs(dataset.region_od, region_index, min_flow)
    whole = RegionEgo(
        nodes=np.arange(len(dataset.region_ids)),
        target_local=0,
        spatial_src=spatial_src,
        spatial_dst=spatial_dst,
        spatial_feats=Tensor(np.zeros((spatial_src.size, REGION_SPATIAL_FEAT_DIM))),
        od_src=od_src,
        od_dst=od_dst,
        od_zflow=Tensor(_zscore_log_flow(flows, stats.region_flow_mean, stats.region_flow_std)),
    )
    return PreparedData(
        regions=regions,
        region_ids=dataset.region_ids,
        stats=stats,
        region_spatial_src=whole.spatial_src,
        region_spatial_dst=whole.spatial_dst,
        region_spatial_feats=whole.spatial_feats,
        region_od_src=whole.od_src,
        region_od_dst=whole.od_dst,
        region_od_zflow=whole.od_zflow,
        egos={
            region_id: _union_egos([replace(whole, target_local=t)], hops)
            for t, region_id in enumerate(dataset.region_ids)
        },
        ego_hops=hops,
        _region_index=region_index,
    )


# ---------------------------------------------------------------------------
# cache and attention records


@dataclass
class RegionCache:
    """Per-region intra vectors snapshotted once per epoch, gradient-stopped."""

    epoch: int
    reps: dict[str, np.ndarray]


@dataclass
class ForwardRecord:
    """Attention weights collected along one prediction call.  ``community``
    holds one record per layer per budgeted intra run, run by run, each over
    its run's union rows.  Each region layer record covers that layer's row
    prefix of the targets' ``RegionEgo`` union, in hop order, so row j is
    target j and the last layer's rows are the targets."""

    community: list[HeteroLayerRecord] = field(default_factory=list)
    region: list[HeteroLayerRecord] = field(default_factory=list)
    final: AttentionRecord | None = None


# ---------------------------------------------------------------------------
# model


class EmissionModel:
    """Hierarchical heterogeneous graph regressor for regional emissions."""

    def __init__(self, config: RunConfig, stats: NormStats | None = None):
        config.validate()
        self.config = config
        self.stats = stats
        d = config.hidden
        seed_seq = np.random.SeedSequence([config.seed, 17])
        rng = np.random.default_rng(seed_seq)
        ablation = config.ablation
        self.use_spatial = ablation != "no_spatial_link"
        self.use_od = ablation != "no_od_link"
        self.use_community = ablation != "no_community_level"
        self.use_region = ablation != "no_region_level"

        self.road_layers = [
            EgatParams.create(
                f"road.{i}",
                d_in=NODE_FEATURE_DIM if i == 0 else d,
                d_e=EDGE_FEATURE_DIM if i == 0 else d,
                d_out=d,
                # the community level reads the last road layer's arcs
                d_e_out=d if i + 1 < config.layers_road or self.use_community else None,
                d_att=d,
                rng=rng,
            )
            for i in range(config.layers_road)
        ]
        no_level = (None, [], None)
        self.community_od_embed, self.community_layers, self.community_fusion = (
            self._hetero_level("community", 2 * d, d, rng) if self.use_community else no_level
        )
        self.region_od_embed, self.region_layers, self.region_fusion = (
            self._hetero_level("region", d, REGION_SPATIAL_FEAT_DIM, rng)
            if self.use_region
            else no_level
        )
        self.final_fusion = (
            FusionParams.create("final_fusion", d, rng) if self.use_region else None
        )

        half = d // 2
        self.head = {
            "W1": xavier_uniform("head.W1", (d, half), rng),
            "b1": zeros("head.b1", (1, half)),
            "W2": xavier_uniform("head.W2", (half, 1), rng),
            "b2": zeros("head.b2", (1, 1)),
        }
        check_unique_names(self.parameters())

    def _hetero_level(
        self, prefix: str, d_in: int, d_e_rn: int, rng
    ) -> tuple[
        tuple[Parameter, Parameter] | None, list[dict[str, EgatParams]], FusionParams | None
    ]:
        """OD embedding, per-layer typed convolutions and fusion of one
        heterogeneous level, created in that order.  Layer 0 reads
        ``d_in``-wide nodes and ``d_e_rn``-wide spatial arcs; nothing reads
        the last layer's arcs, so it has no arc updater."""
        d, depth = self.config.hidden, self.config.layers
        od_embed = None
        if self.use_od:
            od_embed = (
                xavier_uniform(f"{prefix}.od_embed.W", (1, d), rng),
                zeros(f"{prefix}.od_embed.b", (1, d)),
            )
        tags = [tag for tag, used in (("rn", self.use_spatial), ("od", self.use_od)) if used]
        layers = []
        for i in range(depth):
            d_e = {"rn": d_e_rn if i == 0 else d, "od": d}
            layers.append(
                {
                    tag: EgatParams.create(
                        f"{prefix}.{i}.{tag}",
                        d_in if i == 0 else d,
                        d_e=d_e[tag],
                        d_out=d,
                        d_e_out=d if i + 1 < depth else None,
                        d_att=d,
                        rng=rng,
                    )
                    for tag in tags
                }
            )
        fusion = None
        if self.use_spatial and self.use_od:
            fusion = FusionParams.create(f"{prefix}.fusion", d, rng)
        return od_embed, layers, fusion

    # -- parameters --------------------------------------------------------

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for layer in self.road_layers:
            params.extend(layer.parameters())
        for od_embed, layers, fusion in (
            (self.community_od_embed, self.community_layers, self.community_fusion),
            (self.region_od_embed, self.region_layers, self.region_fusion),
        ):
            params.extend(od_embed or ())
            for layer in layers:
                for tag in sorted(layer):
                    params.extend(layer[tag].parameters())
            params.extend(fusion.parameters() if fusion else ())
        if self.final_fusion:
            params.extend(self.final_fusion.parameters())
        params.extend(self.head.values())
        return params

    # -- forward pieces ------------------------------------------------------

    def _hetero_forward(
        self,
        V: Tensor,
        graph: RegionUnion | RegionEgo,
        spatial_feats: Tensor | None,
        level: tuple,
        records: list[HeteroLayerRecord] | None,
        prefixes: dict[str, list[int]] | None = None,
    ) -> Tensor:
        """One heterogeneous level, (od_embed, layers, fusion), on node rows
        ``V`` of a community-graph union or of a region-level ego union.  OD
        arcs carry a linear lift of the z-scored log flows; layer records
        extend ``records``.  ``prefixes`` are ``stack_hetero``'s per-layer
        row and arc prefixes, every row and arc by default."""
        od_embed, layers, fusion = level
        typed = []
        if self.use_spatial:
            typed.append(("rn", graph.spatial_src, graph.spatial_dst, spatial_feats))
        if self.use_od:
            embed_w, embed_b = od_embed
            od_feats = add(matmul(graph.od_zflow, embed_w.tensor), embed_b.tensor)
            typed.append(("od", graph.od_src, graph.od_dst, od_feats))
        v_out, layer_records = stack_hetero(V, typed, layers, fusion, prefixes)
        if records is not None:
            records.extend(layer_records)
        return v_out

    def intra_representation(
        self, regions: list[PreparedRegion], record: ForwardRecord | None = None
    ) -> Tensor:
        """One region vector per region, ``(len(regions), d)``, pooled from
        its community-level graph outputs; the regions run as one disjoint
        union."""
        union = _union_regions(regions)
        phi = self.config.pooling
        v_road, e_road, _ = stack_egat(
            union.node_feats, union.arc_feats, union.arc_src, union.arc_dst, self.road_layers
        )
        if not self.use_community:
            return pool_nodes(phi, v_road, union.community_region[union.groups], len(regions))

        v_comm = community_node_features(
            phi, v_road, e_road, union.arc_src, union.arc_dst, union.groups,
            union.community_region.size,
        )
        spatial_feats = None
        if self.use_spatial:
            # each spatial arc pools the connector segments of its community pair
            spatial_feats = pool(
                phi, e_road, union.cross_src, union.cross_dst, union.spatial_src.size
            )
        level = (self.community_od_embed, self.community_layers, self.community_fusion)
        v_out = self._hetero_forward(
            v_comm, union, spatial_feats, level, None if record is None else record.community
        )
        return pool_nodes(phi, v_out, union.community_region, len(regions))

    def inter_representation(
        self,
        prepared: PreparedData,
        region_ids: list[str],
        live_intra: Tensor,
        cache: RegionCache,
        record: ForwardRecord | None = None,
    ) -> Tensor:
        """Target rows of the region-level graph run against cached
        neighbors, ``(len(region_ids), d)``; ``live_intra`` holds the
        targets' live rows in the same order.

        Evaluated on the disjoint union of the targets' precomputed
        receptive-field subgraphs, which reproduces each full-graph target
        row exactly.  The union, itself a ``RegionEgo``, has its rows in hop
        order, targets first, so the live rows sit above the cached ones.  Layer l
        outputs only the rows within ``depth - 1 - l`` hops of their target,
        a row prefix, from the arcs into them, an arc prefix per type; the
        last layer's rows are the targets'.  Every row except a target's own
        is a cache constant, another batch target's row inside an ego
        included; only the live rows carry gradient.
        """
        if prepared.ego_hops < len(self.region_layers):
            raise ValueError(
                f"prepared data carved {prepared.ego_hops}-hop subgraphs but the "
                f"region stack is {len(self.region_layers)} layers deep"
            )
        union = _union_egos([prepared.egos[r] for r in region_ids], len(self.region_layers))
        ids = prepared.region_ids
        targets = len(region_ids)
        for g in union.nodes.tolist():
            if ids[g] not in cache.reps:
                raise ValueError(f"region {ids[g]} missing from cache (epoch {cache.epoch})")
        # the rows past the targets, none when every ego is its target alone
        cached = np.array([cache.reps[ids[g]][0] for g in union.nodes[targets:].tolist()])
        node_feats = vstack([live_intra, Tensor(cached.reshape(-1, live_intra.shape[1]))])
        level = (self.region_od_embed, self.region_layers, self.region_fusion)
        return self._hetero_forward(
            node_feats, union, union.spatial_feats, level,
            None if record is None else record.region, union.prefixes,
        )

    def _head_forward(self, x: Tensor) -> Tensor:
        hidden = leaky_relu(
            add(matmul(x, self.head["W1"].tensor), self.head["b1"].tensor)
        )
        return add(matmul(hidden, self.head["W2"].tensor), self.head["b2"].tensor)

    def predict_batch(
        self,
        prepared: PreparedData,
        region_ids: list[str],
        cache: RegionCache | None,
        record: ForwardRecord | None = None,
    ) -> Tensor:
        """Normalized-space predictions, ``(len(region_ids), 1)`` in order.

        One intra pass per run of regions that fits ``UNION_ROW_BUDGET``,
        then ``predict_from_intra`` on the stacked rows.
        """
        runs = _budgeted_runs([prepared.regions[r] for r in region_ids])
        intra = vstack([self.intra_representation(run, record) for run in runs])
        return self.predict_from_intra(prepared, region_ids, intra, cache, record)

    def predict_from_intra(
        self,
        prepared: PreparedData,
        region_ids: list[str],
        intra: Tensor,
        cache: RegionCache | None,
        record: ForwardRecord | None = None,
    ) -> Tensor:
        """Normalized-space predictions from the targets' live intra rows,
        ``intra`` in ``region_ids`` order: one region-level pass over the
        union of the targets' egos, one fusion and one head over all rows.
        """
        if not self.use_region:
            return self._head_forward(intra)
        inter = self.inter_representation(prepared, region_ids, intra, cache, record)
        fused, fusion_rec = attention_fusion(
            [("intra", intra), ("inter", inter)], self.final_fusion
        )
        if record is not None:
            record.final = fusion_rec
        return self._head_forward(fused)

    def predict_region(
        self,
        prepared: PreparedData,
        region_id: str,
        cache: RegionCache | None,
        record: ForwardRecord | None = None,
    ) -> Tensor:
        """Normalized-space scalar prediction for one region: the one-region batch."""
        return self.predict_batch(prepared, [region_id], cache, record)


def set_ablation(model: EmissionModel, variant: str) -> EmissionModel:
    """Fresh model with the given structural variant; set before training."""
    config = model.config.with_overrides(ablation=variant)
    return EmissionModel(config.validate(), model.stats)


def refresh_region_cache(
    model: EmissionModel, prepared: PreparedData, epoch: int
) -> RegionCache:
    """Snapshot every region's intra vector under frozen current parameters.

    Entries are plain arrays with no compute-graph history.
    """
    with no_grad():
        reps = {
            rid: model.intra_representation([prepared.regions[rid]]).values.copy()
            for rid in prepared.region_ids
        }
    return RegionCache(epoch=epoch, reps=reps)


# ---------------------------------------------------------------------------
# checkpoint


def _encode_values(p: Parameter) -> str:
    """Base64 of the parameter's little-endian float64 bytes: exact, and
    about half the size of the shortest decimal literals.  A non-finite
    value fails the save, as it would as a JSON number."""
    if not np.isfinite(p.values).all():
        raise ValueError(f"parameter {p.name}: out of range float values are not JSON compliant")
    return base64.b64encode(p.values.astype("<f8").tobytes()).decode("ascii")


def _decode_values(text, shape: tuple, name: str) -> np.ndarray:
    """Inverse of ``_encode_values`` for a parameter of ``shape``.

    The decode skips characters outside the alphabet, so the text must also
    equal the re-encoding of its bytes.  That check is strict and runs in C;
    ``validate=True`` on Python 3.10 matches a regular expression instead.
    """
    if not isinstance(text, str):
        raise CheckpointError(f"parameter {name}: values is not a base64 string")
    try:
        raw = base64.b64decode(text)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise CheckpointError(f"parameter {name}: values is not valid base64 ({exc})")
    if base64.b64encode(raw).decode("ascii") != text:
        raise CheckpointError(
            f"parameter {name}: values is not valid base64 (not the canonical encoding)"
        )
    size = int(np.prod(shape))
    if len(raw) != 8 * size:
        raise CheckpointError(
            f"parameter {name}: {len(raw)} bytes do not fill {shape} (needs {8 * size})"
        )
    values = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    if not np.isfinite(values).all():
        raise CheckpointError(f"parameter {name}: values are not all finite")
    return values


def save_checkpoint(model: EmissionModel, path) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "config": model.config.to_dict(),
        "stats": model.stats.to_dict() if model.stats else None,
        "params": {
            p.name: {"shape": list(p.values.shape), "values": _encode_values(p)}
            for p in model.parameters()
        },
    }
    with atomic_write(path) as fh:
        json.dump(payload, fh, allow_nan=False)


def load_checkpoint(path) -> EmissionModel:
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")

    def unique_keys(pairs: list[tuple]) -> dict:
        """A JSON object as a dict; a repeated key, at any depth, is an error."""
        obj = dict(pairs)
        if len(obj) < len(pairs):
            key = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
            raise CheckpointError(f"checkpoint {path} repeats key {key!r}")
        return obj

    try:
        payload = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=unique_keys)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}")
    if not isinstance(payload, dict):
        raise CheckpointError(f"checkpoint {path} is not a JSON object")
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"unsupported checkpoint format {payload.get('format')!r}, "
            f"expected {CHECKPOINT_FORMAT!r}"
        )
    missing = [key for key in ("config", "stats", "params") if key not in payload]
    if missing:
        raise CheckpointError(f"checkpoint {path} lacks {', '.join(missing)}")
    config = RunConfig.from_dict(payload["config"]).validate()
    stats = None if payload["stats"] is None else NormStats.from_dict(payload["stats"])
    model = EmissionModel(config, stats)
    saved = payload["params"]
    if not isinstance(saved, dict):
        raise CheckpointError("params is not an object")
    own = {p.name: p for p in model.parameters()}
    if set(saved) != set(own):
        missing = sorted(set(own) - set(saved))
        extra = sorted(set(saved) - set(own))
        raise CheckpointError(
            f"parameter names do not match checkpoint (missing {missing}, extra {extra})"
        )
    for name, entry in saved.items():
        if not isinstance(entry, dict) or not {"shape", "values"} <= set(entry):
            raise CheckpointError(f"parameter {name}: entry needs shape and values")
        if not isinstance(entry["shape"], list):
            raise CheckpointError(f"parameter {name}: shape is not a list")
        if not all(isinstance(n, int) and not isinstance(n, bool) for n in entry["shape"]):
            raise CheckpointError(f"parameter {name}: shape {entry['shape']} holds a non-integer")
        shape = tuple(entry["shape"])
        if shape != own[name].values.shape:
            raise CheckpointError(
                f"parameter {name}: checkpoint shape {shape} vs model {own[name].values.shape}"
            )
        own[name].tensor.values = _decode_values(entry["values"], shape, name)
    return model
