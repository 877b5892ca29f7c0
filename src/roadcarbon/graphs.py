"""Domain graphs: road networks, the area hierarchy, and the arc structure
of the community and region graphs.

Every move between hierarchy levels is one ``pool`` call, which reduces
rows into groups: sum and mean pooling are the engine's gather-scatter
kernel ``tensor.attend`` (weights 1, or 1/|group|), max pooling is
``tensor.segment_max`` over the same source rows.  It runs on autodiff
tensors, so gradients flow through the coarsening.  The typed-arc functions return
plain index arrays, computed once per dataset.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, attend, hstack, segment_max

logger = logging.getLogger(__name__)

ROAD_CLASSES = ("motorway", "primary", "secondary", "residential", "other")
_CLASS_INDEX = {name: i for i, name in enumerate(ROAD_CLASSES)}

NODE_FEATURE_DIM = 3  # rel_lon, rel_lat, degree
EDGE_FEATURE_DIM = 3 + len(ROAD_CLASSES)  # rel_lon, rel_lat, length + one-hot class


class GraphValidationError(ValueError):
    """Raised with every offending record listed, one per line."""


def road_class_index(name: str) -> int:
    return _CLASS_INDEX.get(name, _CLASS_INDEX["other"])


@dataclass
class RoadGraph:
    """One region's road network: intersections plus segments as directed arc pairs."""

    region_id: str
    node_ids: list[str]
    node_xy: np.ndarray  # Nx2 relative coordinates in [0,1]
    node_feats: np.ndarray  # Nx3 raw (rel_lon, rel_lat, degree)
    arc_src: np.ndarray  # 2M, two directed arcs per undirected segment
    arc_dst: np.ndarray
    arc_feats: np.ndarray  # 2Mx8 raw (rel_lon, rel_lat, length_km, class one-hot)
    arc_length_km: np.ndarray
    arc_class: np.ndarray  # small-int category per arc
    n_segments: int

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def degrees(self) -> np.ndarray:
        return self.node_feats[:, 2].astype(np.int64)


def build_road_graph(region_id: str, nodes, segments) -> RoadGraph:
    """Validate raw intersection/segment records and realize the arc arrays.

    ``nodes``: iterable of (node_id, rel_lon, rel_lat).
    ``segments``: iterable of (u, v, rel_lon, rel_lat, length_km, road_class).
    """
    nodes = list(nodes)
    segments = list(segments)
    problems = []
    seen = set()
    for node_id, lon, lat in nodes:
        if node_id in seen:
            problems.append(f"duplicate node id {node_id}")
        seen.add(node_id)
        if not (0.0 <= lon <= 1.0 and 0.0 <= lat <= 1.0):
            problems.append(f"node {node_id}: relative coordinates outside [0,1]")
    node_ids = sorted(seen)
    index = {nid: i for i, nid in enumerate(node_ids)}
    for u, v, _lon, _lat, length, _cls in segments:
        if u not in index:
            problems.append(f"segment endpoint references missing node {u}")
        if v not in index:
            problems.append(f"segment endpoint references missing node {v}")
        if u == v:
            problems.append(f"self-loop segment at node {u}")
        if length <= 0:
            problems.append(f"segment {u}-{v}: non-positive length {length}")
    if problems:
        raise GraphValidationError(
            f"region {region_id}: invalid road graph:\n" + "\n".join(problems)
        )

    n = len(node_ids)
    m = len(segments)
    # arc 2k runs u -> v and arc 2k + 1 runs v -> u for segment k = (u, v, ...)
    ends = np.array([(index[s[0]], index[s[1]]) for s in segments], dtype=np.int64).reshape(m, 2)
    seg_feats = np.array([s[2:5] for s in segments], dtype=np.float64).reshape(m, 3)
    seg_class = np.array([road_class_index(s[5]) for s in segments], dtype=np.int64)
    arc_src = ends.ravel()
    arc_dst = ends[:, ::-1].ravel()
    arc_feats = np.zeros((2 * m, EDGE_FEATURE_DIM))
    arc_feats[:, :3] = np.repeat(seg_feats, 2, axis=0)
    arc_class = np.repeat(seg_class, 2)
    arc_feats[np.arange(2 * m), 3 + arc_class] = 1.0
    arc_length = arc_feats[:, 2].copy()

    node_xy = np.zeros((n, 2))
    node_xy[[index[node_id] for node_id, _, _ in nodes]] = np.array(
        [(lon, lat) for _, lon, lat in nodes], dtype=np.float64
    ).reshape(n, 2)
    node_feats = np.zeros((n, NODE_FEATURE_DIM))
    node_feats[:, :2] = node_xy
    node_feats[:, 2] = np.bincount(arc_dst, minlength=n)

    return RoadGraph(
        region_id=region_id,
        node_ids=node_ids,
        node_xy=node_xy,
        node_feats=node_feats,
        arc_src=arc_src,
        arc_dst=arc_dst,
        arc_feats=arc_feats,
        arc_length_km=arc_length,
        arc_class=arc_class,
        n_segments=m,
    )


@dataclass
class Hierarchy:
    """Intersection -> community -> region affiliation maps."""

    node_to_community: dict[str, str]
    community_to_region: dict[str, str]

    def __post_init__(self):
        self.regions = tuple(sorted(set(self.community_to_region.values())))
        by_region: dict[str, list[str]] = {r: [] for r in self.regions}
        for community, region in self.community_to_region.items():
            by_region[region].append(community)
        self._communities = {r: sorted(cs) for r, cs in by_region.items()}

    def communities_of(self, region_id: str) -> list[str]:
        return self._communities[region_id]


@dataclass
class ODFlow:
    origin: str
    dest: str
    level: str  # "community" | "region"
    flow: float


# ---------------------------------------------------------------------------
# pooling between levels


def pool(phi: str, rows: Tensor, src, dst, n: int) -> Tensor:
    """Row i pools ``rows[src[k]]`` over every k with ``dst[k] == i``;
    groups without entries give zero rows."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if phi == "sum":
        return attend(rows, Tensor(np.ones((src.size, 1))), src, dst, n)
    if phi == "mean":
        counts = np.bincount(dst, minlength=n).astype(np.float64)
        return attend(rows, Tensor(1.0 / counts[dst, None]), src, dst, n)
    if phi == "max":
        return segment_max(rows, dst, n, src)
    raise ValueError(f"unknown pooling function {phi!r} (expected mean, sum or max)")


def pool_nodes(phi: str, reps: Tensor, groups, n_groups: int) -> Tensor:
    """Group-wise reduction of node rows; empty groups give zero rows."""
    seg = np.asarray(groups, dtype=np.int64)
    counts = np.bincount(seg, minlength=n_groups)
    if (counts == 0).any():
        empties = np.flatnonzero(counts == 0).tolist()
        logger.warning("pool_nodes: empty groups %s pooled to zero rows", empties)
    return pool(phi, reps, np.arange(seg.size), seg, n_groups)


def community_spatial_arcs(arc_src, arc_dst, groups):
    """Spatial arcs of a community graph, derived from its road arcs.

    Returns ``(spatial_src, spatial_dst, cross_src, cross_dst)``.  Group
    pairs (a < b) joined by at least one crossing arc are sorted and each
    emitted as a -> b then b -> a.  Spatial arc ``cross_dst[k]`` pools road
    arc ``cross_src[k]``: every crossing arc is listed under both spatial
    arcs of its pair, and each spatial arc's road arcs ascend.
    """
    groups = np.asarray(groups, dtype=np.int64)
    gs = groups[np.asarray(arc_src, dtype=np.int64)]
    gd = groups[np.asarray(arc_dst, dtype=np.int64)]
    crossing = np.flatnonzero(gs != gd)
    n_groups = int(groups.max()) + 1 if groups.size else 1
    lo = np.minimum(gs[crossing], gd[crossing])
    hi = np.maximum(gs[crossing], gd[crossing])
    keys, pair_of = np.unique(lo * n_groups + hi, return_inverse=True)
    pairs = np.stack([keys // n_groups, keys % n_groups], axis=1)
    return (
        pairs.ravel(),
        pairs[:, ::-1].ravel(),
        np.repeat(crossing, 2),
        (2 * pair_of[:, None] + np.arange(2)).ravel(),
    )


def adjacency_arcs(pairs, index: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric spatial arcs from undirected area pairs, sorted by (a < b)
    and emitted as a -> b then b -> a; self-pairs and repeats collapse."""
    keys = set()
    for a_id, b_id in pairs:
        for area in (a_id, b_id):
            if area not in index:
                raise GraphValidationError(f"adjacency record references unknown area {area}")
        a, b = index[a_id], index[b_id]
        if a != b:
            keys.add((min(a, b), max(a, b)))
    arcs = np.array(sorted(keys), dtype=np.int64).reshape(-1, 2)
    return arcs.ravel(), arcs[:, ::-1].ravel()


def od_arcs(records, index: dict[str, int], min_flow: float = 0.0):
    """Directed OD arcs ``(src, dst, flow)``, one per record with flow above
    ``min_flow``.  Unknown areas, self-loops and repeated pairs are errors:
    in-memory datasets reach here without passing the CSV loader."""
    src, dst, flows = [], [], []
    seen = set()
    for record in records:
        origin, dest = record.origin, record.dest
        for area in (origin, dest):
            if area not in index:
                raise GraphValidationError(f"OD record references unknown area {area}")
        if origin == dest:
            raise GraphValidationError(f"OD record with identical origin and destination {origin}")
        if (origin, dest) in seen:
            raise GraphValidationError(f"duplicate OD record {origin} -> {dest}")
        seen.add((origin, dest))
        if record.flow <= min_flow:
            continue
        src.append(index[origin])
        dst.append(index[dest])
        flows.append(record.flow)
    return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), np.array(flows)


def community_node_features(
    phi: str,
    node_reps: Tensor,
    edge_reps: Tensor,
    arc_src,
    arc_dst,
    groups,
    n_groups: int,
) -> Tensor:
    """Initial community features: pooled member nodes beside pooled
    internal arcs (both endpoints in the community; none -> zero row)."""
    groups = np.asarray(groups, dtype=np.int64)
    src = np.asarray(arc_src, dtype=np.int64)
    internal = np.flatnonzero(groups[src] == groups[np.asarray(arc_dst, dtype=np.int64)])
    pooled_nodes = pool_nodes(phi, node_reps, groups, n_groups)
    pooled_edges = pool(phi, edge_reps, internal, groups[src[internal]], n_groups)
    return hstack([pooled_nodes, pooled_edges])
