"""End-to-end emission model: road-level encoding, community and region
heterogeneous stacks, epoch-lagged region cache, fusion head, checkpoints.

Per region the forward pass runs the road-level convolution stack, pools
intersections and internal segments into community features, propagates the
community heterogeneous graph, and pools to one intra-region vector.  The
region-level graph is evaluated against cached neighbor vectors refreshed
once per epoch; only the target region's own row is live so gradients flow
through its full hierarchy while neighbors act as constants.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import RunConfig
from .data import Dataset
from .graphs import (
    EDGE_FEATURE_DIM,
    NODE_FEATURE_DIM,
    ODFlow,
    adjacency_arcs,
    community_node_features,
    community_spatial_arcs,
    od_arcs,
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
from .tensor import Tensor, add, gather_rows, leaky_relu, matmul, no_grad, vstack

CHECKPOINT_FORMAT = "hence-v2"  # v2: no arc updater on a stack's last layer when unread

REGION_SPATIAL_FEAT_DIM = 1  # zero-vector stand-in; no cross-region segments exist


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
        return {
            "node_mean": self.node_mean.tolist(),
            "node_std": self.node_std.tolist(),
            "edge_mean": self.edge_mean.tolist(),
            "edge_std": self.edge_std.tolist(),
            "community_flow_mean": self.community_flow_mean,
            "community_flow_std": self.community_flow_std,
            "region_flow_mean": self.region_flow_mean,
            "region_flow_std": self.region_flow_std,
            "label_mean": self.label_mean,
            "label_std": self.label_std,
        }

    @staticmethod
    def from_dict(data: dict) -> "NormStats":
        return NormStats(
            node_mean=np.array(data["node_mean"]),
            node_std=np.array(data["node_std"]),
            edge_mean=np.array(data["edge_mean"]),
            edge_std=np.array(data["edge_std"]),
            community_flow_mean=data["community_flow_mean"],
            community_flow_std=data["community_flow_std"],
            region_flow_mean=data["region_flow_mean"],
            region_flow_std=data["region_flow_std"],
            label_mean=data["label_mean"],
            label_std=data["label_std"],
        )


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
class PreparedRegion:
    """One region's constant tensors plus static community-graph structure.

    The crossing-pair arc index arrays let the live pooling of connector
    segments run as two segment reductions instead of a per-pair loop.
    """

    region_id: str
    node_feats: Tensor
    arc_feats: Tensor
    arc_src: np.ndarray
    arc_dst: np.ndarray
    groups: np.ndarray
    community_ids: list[str]
    label_norm: float
    label_raw: float
    spatial_src: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    spatial_dst: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    cross_arc_idx: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    cross_arc_pair: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    n_cross_pairs: int = 0
    pair_gather: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    od_src: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    od_dst: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    od_zflow: Tensor | None = None


@dataclass
class RegionEgo:
    """Induced subgraph of one target's L-hop in-neighborhood at region level.

    Running the region stack on this subgraph reproduces the target's output
    row exactly: a node's value after layer l depends only on its l-hop
    in-neighborhood, and every node at distance k keeps its full incoming
    arc set whenever its row is consumed (k <= hops - layer).
    """

    nodes: np.ndarray  # global region indices, sorted
    target_local: int
    spatial_src: np.ndarray
    spatial_dst: np.ndarray
    spatial_feats: Tensor
    od_src: np.ndarray
    od_dst: np.ndarray
    od_zflow: Tensor


@dataclass
class PreparedData:
    regions: dict[str, PreparedRegion]
    region_ids: list[str]
    stats: NormStats
    region_spatial_src: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    region_spatial_dst: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    region_spatial_feats: Tensor | None = None
    region_od_src: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    region_od_dst: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    region_od_zflow: Tensor | None = None
    egos: dict[str, RegionEgo] = field(default_factory=dict)
    ego_hops: int = 0
    _region_index: dict[str, int] = field(default_factory=dict)

    def region_index(self, region_id: str) -> int:
        return self._region_index[region_id]


def _zscore_log_flow(flows: np.ndarray, mean: float, std: float) -> np.ndarray:
    return (np.log1p(flows) - mean) / std


def prepare_dataset(
    dataset: Dataset, stats: NormStats, min_flow: float = 0.0, hops: int = 4
) -> PreparedData:
    """Z-score features once, freeze them as constant tensors, and derive the
    static typed-arc structure of every heterogeneous graph.

    ``hops`` bounds the region-level receptive field used to carve per-target
    ego subgraphs; it must be at least the configured stack depth (the
    default covers every allowed depth).
    """
    by_region_od: dict[str, list[ODFlow]] = {r: [] for r in dataset.region_ids}
    region_of = dataset.hierarchy.community_to_region
    for rec in dataset.community_od:
        by_region_od[region_of[rec.origin]].append(rec)

    regions = {}
    for region_id in dataset.region_ids:
        graph = dataset.road_graphs[region_id]
        communities = dataset.hierarchy.communities_of(region_id)
        community_index = {c: k for k, c in enumerate(communities)}
        groups = np.array(
            [
                community_index[dataset.hierarchy.node_to_community[nid]]
                for nid in graph.node_ids
            ],
            dtype=np.int64,
        )
        spatial_src, spatial_dst, cross_arc_idx, cross_arc_pair, n_pairs = (
            community_spatial_arcs(graph.arc_src, graph.arc_dst, groups)
        )
        od_src, od_dst, flows = od_arcs(by_region_od[region_id], community_index, min_flow)
        regions[region_id] = PreparedRegion(
            region_id=region_id,
            node_feats=Tensor((graph.node_feats - stats.node_mean) / stats.node_std),
            arc_feats=Tensor((graph.arc_feats - stats.edge_mean) / stats.edge_std),
            arc_src=graph.arc_src,
            arc_dst=graph.arc_dst,
            groups=groups,
            community_ids=communities,
            label_norm=stats.normalize_label(dataset.labels[region_id]),
            label_raw=dataset.labels[region_id],
            spatial_src=spatial_src,
            spatial_dst=spatial_dst,
            cross_arc_idx=cross_arc_idx,
            cross_arc_pair=cross_arc_pair,
            n_cross_pairs=n_pairs,
            pair_gather=np.repeat(np.arange(n_pairs, dtype=np.int64), 2),
            od_src=od_src,
            od_dst=od_dst,
            od_zflow=Tensor(
                _zscore_log_flow(flows, stats.community_flow_mean, stats.community_flow_std)
            ),
        )

    region_index = {r: i for i, r in enumerate(dataset.region_ids)}
    spatial_src, spatial_dst = adjacency_arcs(dataset.region_adjacency, region_index)
    od_src, od_dst, flows = od_arcs(dataset.region_od, region_index, min_flow)
    region_od_zflow = _zscore_log_flow(flows, stats.region_flow_mean, stats.region_flow_std)
    prepared = PreparedData(
        regions=regions,
        region_ids=dataset.region_ids,
        stats=stats,
        region_spatial_src=spatial_src,
        region_spatial_dst=spatial_dst,
        region_spatial_feats=Tensor(np.zeros((spatial_src.size, REGION_SPATIAL_FEAT_DIM))),
        region_od_src=od_src,
        region_od_dst=od_dst,
        region_od_zflow=Tensor(region_od_zflow),
        _region_index=region_index,
    )
    prepared.egos = _build_region_egos(prepared, region_od_zflow, hops)
    prepared.ego_hops = hops
    return prepared


def _build_region_egos(
    prepared: PreparedData, od_zflow: np.ndarray, hops: int
) -> dict[str, RegionEgo]:
    n = len(prepared.region_ids)
    all_src = np.concatenate([prepared.region_spatial_src, prepared.region_od_src])
    all_dst = np.concatenate([prepared.region_spatial_dst, prepared.region_od_dst])
    in_neighbors: list[list[int]] = [[] for _ in range(n)]
    for s, d in zip(all_src.tolist(), all_dst.tolist()):
        in_neighbors[d].append(s)

    egos = {}
    for t, region_id in enumerate(prepared.region_ids):
        ball = {t}
        frontier = [t]
        for _ in range(hops):
            nxt = []
            for v in frontier:
                for u in in_neighbors[v]:
                    if u not in ball:
                        ball.add(u)
                        nxt.append(u)
            frontier = nxt
        nodes = np.array(sorted(ball), dtype=np.int64)
        local = np.full(n, -1, dtype=np.int64)
        local[nodes] = np.arange(nodes.size)

        def _restrict(src, dst):
            mask = (local[src] >= 0) & (local[dst] >= 0)
            return mask, local[src[mask]], local[dst[mask]]

        sp_mask, sp_src, sp_dst = _restrict(
            prepared.region_spatial_src, prepared.region_spatial_dst
        )
        od_mask, od_src, od_dst = _restrict(prepared.region_od_src, prepared.region_od_dst)
        egos[region_id] = RegionEgo(
            nodes=nodes,
            target_local=int(local[t]),
            spatial_src=sp_src,
            spatial_dst=sp_dst,
            spatial_feats=Tensor(np.zeros((sp_src.size, REGION_SPATIAL_FEAT_DIM))),
            od_src=od_src,
            od_dst=od_dst,
            od_zflow=Tensor(od_zflow[od_mask]),
        )
    return egos


# ---------------------------------------------------------------------------
# cache and attention records


@dataclass
class RegionCache:
    """Per-region intra vectors snapshotted once per epoch, gradient-stopped."""

    epoch: int
    reps: dict[str, np.ndarray]

    def fingerprint(self) -> tuple:
        return tuple(
            (rid, self.reps[rid].tobytes()) for rid in sorted(self.reps)
        )


@dataclass
class ForwardRecord:
    """Attention weights collected along one region's prediction."""

    community: list[HeteroLayerRecord] = field(default_factory=list)
    region: list[HeteroLayerRecord] = field(default_factory=list)
    region_target_idx: int | None = None
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

        def arc_width(i: int, depth: int, read_after: bool = False) -> int | None:
            """Width of layer i's updated arcs; None (no arc updater) for a
            stack's last layer when nothing after the stack reads its arcs."""
            return d if i + 1 < depth or read_after else None

        self.road_layers = [
            EgatParams.create(
                f"road.{i}",
                d_in=NODE_FEATURE_DIM if i == 0 else d,
                d_e=EDGE_FEATURE_DIM if i == 0 else d,
                d_out=d,
                d_e_out=arc_width(i, config.layers_road, read_after=self.use_community),
                d_att=d,
                rng=rng,
            )
            for i in range(config.layers_road)
        ]

        self.community_layers: list[dict[str, EgatParams]] = []
        self.community_fusion: FusionParams | None = None
        self.community_od_embed: tuple[Parameter, Parameter] | None = None
        if self.use_community:
            if self.use_od:
                self.community_od_embed = (
                    xavier_uniform("community.od_embed.W", (1, d), rng),
                    zeros("community.od_embed.b", (1, d)),
                )
            for i in range(config.layers):
                layer: dict[str, EgatParams] = {}
                d_in = 2 * d if i == 0 else d
                e_out = arc_width(i, config.layers)
                if self.use_spatial:
                    layer["rn"] = EgatParams.create(
                        f"community.{i}.rn", d_in, d_e=d, d_out=d, d_e_out=e_out, d_att=d, rng=rng
                    )
                if self.use_od:
                    layer["od"] = EgatParams.create(
                        f"community.{i}.od", d_in, d_e=d, d_out=d, d_e_out=e_out, d_att=d, rng=rng
                    )
                self.community_layers.append(layer)
            if self.use_spatial and self.use_od:
                self.community_fusion = FusionParams.create("community.fusion", d, rng)

        self.region_layers: list[dict[str, EgatParams]] = []
        self.region_fusion: FusionParams | None = None
        self.region_od_embed: tuple[Parameter, Parameter] | None = None
        self.final_fusion: FusionParams | None = None
        if self.use_region:
            if self.use_od:
                self.region_od_embed = (
                    xavier_uniform("region.od_embed.W", (1, d), rng),
                    zeros("region.od_embed.b", (1, d)),
                )
            for i in range(config.layers):
                layer = {}
                e_out = arc_width(i, config.layers)
                if self.use_spatial:
                    layer["rn"] = EgatParams.create(
                        f"region.{i}.rn",
                        d,
                        d_e=REGION_SPATIAL_FEAT_DIM if i == 0 else d,
                        d_out=d,
                        d_e_out=e_out,
                        d_att=d,
                        rng=rng,
                    )
                if self.use_od:
                    layer["od"] = EgatParams.create(
                        f"region.{i}.od", d, d_e=d, d_out=d, d_e_out=e_out, d_att=d, rng=rng
                    )
                self.region_layers.append(layer)
            if self.use_spatial and self.use_od:
                self.region_fusion = FusionParams.create("region.fusion", d, rng)
            self.final_fusion = FusionParams.create("final_fusion", d, rng)

        half = d // 2
        self.head = {
            "W1": xavier_uniform("head.W1", (d, half), rng),
            "b1": zeros("head.b1", (1, half)),
            "W2": xavier_uniform("head.W2", (half, 1), rng),
            "b2": zeros("head.b2", (1, 1)),
        }
        check_unique_names(self.parameters())

    # -- parameters --------------------------------------------------------

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for layer in self.road_layers:
            params.extend(layer.parameters())
        if self.community_od_embed:
            params.extend(self.community_od_embed)
        for layer in self.community_layers:
            for tag in sorted(layer):
                params.extend(layer[tag].parameters())
        if self.community_fusion:
            params.extend(self.community_fusion.parameters())
        if self.region_od_embed:
            params.extend(self.region_od_embed)
        for layer in self.region_layers:
            for tag in sorted(layer):
                params.extend(layer[tag].parameters())
        if self.region_fusion:
            params.extend(self.region_fusion.parameters())
        if self.final_fusion:
            params.extend(self.final_fusion.parameters())
        params.extend(self.head.values())
        return params

    # -- forward pieces ------------------------------------------------------

    def _embed_od(self, zflow: Tensor, level: str) -> Tensor:
        """Learnable linear lift of the z-scored log-flow column."""
        embed_w, embed_b = (
            self.community_od_embed if level == "community" else self.region_od_embed
        )
        return add(matmul(zflow, embed_w.tensor), embed_b.tensor)

    def intra_representation(
        self, prep: PreparedRegion, record: ForwardRecord | None = None
    ) -> Tensor:
        """Region vector pooled from its community-level graph outputs."""
        if prep.node_feats.shape[0] == 0:
            raise ValueError(f"region {prep.region_id} has no intersections")
        phi = self.config.pooling
        v_road, e_road, _ = stack_egat(
            prep.node_feats, prep.arc_feats, prep.arc_src, prep.arc_dst, self.road_layers
        )
        n_nodes = v_road.shape[0]
        if not self.use_community:
            return pool_nodes(phi, v_road, np.zeros(n_nodes, dtype=np.int64), 1)

        n_comm = len(prep.community_ids)
        v_comm = community_node_features(
            phi, v_road, e_road, prep.arc_src, prep.arc_dst, prep.groups, n_comm
        )
        typed = []
        if self.use_spatial:
            # pooled connector-segment features, one row per crossing pair,
            # duplicated onto the symmetric arc pair
            crossing = gather_rows(e_road, prep.cross_arc_idx)
            pair_feats = pool_nodes(phi, crossing, prep.cross_arc_pair, prep.n_cross_pairs)
            spatial_feats = gather_rows(pair_feats, prep.pair_gather)
            typed.append(("rn", prep.spatial_src, prep.spatial_dst, spatial_feats))
        if self.use_od:
            typed.append(
                ("od", prep.od_src, prep.od_dst, self._embed_od(prep.od_zflow, "community"))
            )
        v_out, records = stack_hetero(
            v_comm, typed, self.community_layers, self.community_fusion
        )
        if record is not None:
            record.community.extend(records)
        return pool_nodes(phi, v_out, np.zeros(n_comm, dtype=np.int64), 1)

    def inter_representation(
        self,
        prepared: PreparedData,
        region_id: str,
        live_intra: Tensor,
        cache: RegionCache,
        record: ForwardRecord | None = None,
    ) -> Tensor:
        """Target row of the region-level graph run against cached neighbors.

        Evaluated on the target's precomputed receptive-field subgraph, which
        reproduces the full-graph target row exactly.  All rows except the
        target's are cache constants; only the live row carries gradient.
        """
        if region_id not in cache.reps:
            raise ValueError(f"region {region_id} missing from cache (epoch {cache.epoch})")
        if prepared.ego_hops < len(self.region_layers):
            raise ValueError(
                f"prepared data carved {prepared.ego_hops}-hop subgraphs but the "
                f"region stack is {len(self.region_layers)} layers deep"
            )
        ego = prepared.egos[region_id]
        ids = prepared.region_ids
        t = ego.target_local
        rows = [cache.reps[ids[g]] for g in ego.nodes.tolist()]
        parts = []
        if t > 0:
            parts.append(Tensor(np.concatenate(rows[:t], axis=0)))
        parts.append(live_intra)
        if t + 1 < len(rows):
            parts.append(Tensor(np.concatenate(rows[t + 1 :], axis=0)))
        node_feats = vstack(parts) if len(parts) > 1 else parts[0]

        typed = []
        if self.use_spatial:
            typed.append(("rn", ego.spatial_src, ego.spatial_dst, ego.spatial_feats))
        if self.use_od:
            typed.append(
                ("od", ego.od_src, ego.od_dst, self._embed_od(ego.od_zflow, "region"))
            )
        v_out, records = stack_hetero(
            node_feats, typed, self.region_layers, self.region_fusion
        )
        if record is not None:
            record.region.extend(records)
            record.region_target_idx = t
        return gather_rows(v_out, np.array([t], dtype=np.int64))

    def _head_forward(self, x: Tensor) -> Tensor:
        hidden = leaky_relu(
            add(matmul(x, self.head["W1"].tensor), self.head["b1"].tensor)
        )
        return add(matmul(hidden, self.head["W2"].tensor), self.head["b2"].tensor)

    def predict_region(
        self,
        prepared: PreparedData,
        region_id: str,
        cache: RegionCache | None,
        record: ForwardRecord | None = None,
    ) -> Tensor:
        """Normalized-space scalar prediction for one region."""
        intra = self.intra_representation(prepared.regions[region_id], record)
        if not self.use_region:
            return self._head_forward(intra)
        inter = self.inter_representation(prepared, region_id, intra, cache, record)
        fused, fusion_rec = attention_fusion(
            [("intra", intra), ("inter", inter)], self.final_fusion
        )
        if record is not None:
            record.final = fusion_rec
        return self._head_forward(fused)


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
            rid: model.intra_representation(prepared.regions[rid]).values.copy()
            for rid in prepared.region_ids
        }
    return RegionCache(epoch=epoch, reps=reps)


# ---------------------------------------------------------------------------
# checkpoint


def save_checkpoint(model: EmissionModel, path) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "config": model.config.to_dict(),
        "stats": model.stats.to_dict() if model.stats else None,
        "params": {
            p.name: {"shape": list(p.values.shape), "values": p.values.ravel().tolist()}
            for p in model.parameters()
        },
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_checkpoint(path) -> EmissionModel:
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}")
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"unsupported checkpoint format {payload.get('format')!r}, "
            f"expected {CHECKPOINT_FORMAT!r}"
        )
    config = RunConfig.from_dict(payload["config"]).validate()
    stats = NormStats.from_dict(payload["stats"]) if payload["stats"] else None
    model = EmissionModel(config, stats)
    saved = payload["params"]
    own = {p.name: p for p in model.parameters()}
    if set(saved) != set(own):
        missing = sorted(set(own) - set(saved))
        extra = sorted(set(saved) - set(own))
        raise CheckpointError(
            f"parameter names do not match checkpoint (missing {missing}, extra {extra})"
        )
    for name, entry in saved.items():
        shape = tuple(entry["shape"])
        if shape != own[name].values.shape:
            raise CheckpointError(
                f"parameter {name}: checkpoint shape {shape} vs model {own[name].values.shape}"
            )
        own[name].tensor.values = np.array(entry["values"]).reshape(shape)
    return model
